"""Tests of the benchmark itself: seeded inputs, arithmetic, short workloads.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import threading

import pytest

from perfbench import inputs, layers, stats
from perfbench.layers import ROOT_LAYER, Span, SpanLog
from perfbench.workloads import WORKLOADS, traced_pass
from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.service.fingerprint import fingerprint_workload


# ------------------------------------------------------------------ inputs
def test_serve_hot_inputs_repeat_per_seed():
    first = inputs.serve_hot_inputs(3, 500)
    assert first.describe() == inputs.serve_hot_inputs(3, 500).describe()
    assert first.describe() != inputs.serve_hot_inputs(4, 500).describe()
    assert len(set(first.windows)) == inputs.SERVE_HOT_WINDOWS
    assert sum(fresh for _, fresh in first.ops) == 50


def test_fresh_serve_hot_objects_fingerprint_like_their_window():
    cluster = make_cluster(inputs.SERVE_HOT_GPUS)
    config = ExecutionPlanner(cluster).config_signature()
    window = inputs.serve_hot_inputs(3, 10).windows[0]
    first = inputs.build_tasks(inputs.CLIP, window)
    again = inputs.build_tasks(inputs.CLIP, window)
    assert first[0] is not again[0]
    assert fingerprint_workload(first, cluster, config) == fingerprint_workload(
        again, cluster, config
    )


def test_plan_cold_requests_repeat_per_seed_and_never_collide():
    requests = inputs.plan_cold_requests(3, 16)
    assert inputs.describe_requests(requests) == inputs.describe_requests(
        inputs.plan_cold_requests(3, 16)
    )
    assert inputs.describe_requests(requests) != inputs.describe_requests(
        inputs.plan_cold_requests(4, 16)
    )
    assert sum(r.gpus == 4096 for r in requests) == 4
    clusters = {gpus: make_cluster(gpus) for gpus in inputs.PLAN_COLD_GPUS}
    config = ExecutionPlanner(clusters[1024]).config_signature()
    fingerprints = {
        fingerprint_workload(r.build(), clusters[r.gpus], config) for r in requests
    }
    assert len(fingerprints) == len(requests)


def test_elastic_scenarios_repeat_per_seed_and_index():
    scenario = inputs.elastic_scenario(3, 0)
    assert inputs.describe_scenario(scenario) == inputs.describe_scenario(
        inputs.elastic_scenario(3, 0)
    )
    assert inputs.describe_scenario(scenario) != inputs.describe_scenario(
        inputs.elastic_scenario(3, 1)
    )
    kinds = [event.kind for event in scenario.timeline.cluster_events]
    assert kinds.count("node_join") == 1
    assert kinds.count("device_failure") == inputs.ELASTIC_FAILURES


# -------------------------------------------------------------- arithmetic
def test_nearest_rank_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert stats.nearest_rank(values, 50) == 50.0
    assert stats.nearest_rank(values, 99) == 99.0
    assert stats.nearest_rank([7.0], 1) == 7.0
    assert stats.tail_percentile(100) == 90
    assert stats.ops_beyond(100, 90) == 10
    assert stats.tail_percentile(60) == 83
    assert stats.ops_beyond(60, 83) == 10
    assert stats.ops_beyond(60, 84) == 9
    assert stats.tail_percentile(11) == 9
    with pytest.raises(ValueError):
        stats.tail_percentile(10)


def _op_spans(op: int = 0) -> list[Span]:
    """Root [0,10] > request [1,9] > submit [1,2]; worker plan [3,7] >
    estimation [4,5]; the queue wait [2,3] is derived."""
    return [
        Span(1, "op", ROOT_LAYER, 0.0, 10.0, None, op),
        Span(2, "request", "frontend", 1.0, 9.0, 1, op),
        Span(3, "submit", "frontend", 1.0, 2.0, 2, op),
        Span(4, "plan", "planner", 3.0, 7.0, None, op),
        Span(5, "estimate_with_reuse", "estimation", 4.0, 5.0, 4, op),
    ]


def test_self_times_partition_the_op():
    spans = _op_spans()
    queue = layers.add_queue_span(spans, 6)
    assert (queue.start, queue.end, queue.parent) == (2.0, 3.0, 2)
    owned = layers.self_times(spans + [queue])
    assert owned == {1: 2.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 1.0, 6: 1.0}
    assert sum(owned.values()) == 10.0


def test_overlapping_worker_span_owns_the_shared_time():
    spans = [
        Span(1, "op", ROOT_LAYER, 0.0, 10.0, None, 0),
        Span(2, "request", "frontend", 0.0, 10.0, 1, 0),
        Span(3, "submit", "frontend", 1.0, 3.0, 2, 0),
        Span(4, "plan", "planner", 2.0, 4.0, None, 0),
    ]
    queue = layers.add_queue_span(spans, 5)
    assert queue.end - queue.start == 0.0
    owned = layers.self_times(spans + [queue])
    assert owned == {1: 0.0, 2: 7.0, 3: 1.0, 4: 2.0, 5: 0.0}


def test_ledger_sums_layers_and_reports_span_time_outside_ops():
    """Op 1 [20,24] has a worker record that outlives it and one that lies
    wholly after it: 1 s and 1 s are clipped, one span is outside."""
    log = SpanLog()
    log.spans = _op_spans(0) + [
        Span(11, "op", ROOT_LAYER, 20.0, 24.0, None, 1),
        Span(12, "request", "frontend", 20.5, 23.5, 11, 1),
        Span(13, "record", "obs", 23.0, 25.0, None, 1),
        Span(14, "record", "obs", 30.0, 31.0, None, 1),
    ]
    ledger = layers.ledger(log, {0: 10.0, 1: 4.0})
    assert ledger.self_seconds == {
        ROOT_LAYER: 2.5,
        "frontend": 5.5,
        "queue": 1.0,
        "planner": 3.0,
        "estimation": 1.0,
        "obs": 1.0,
    }
    assert ledger.calls["frontend"] == 3 and ledger.calls["obs"] == 2
    assert ledger.queue_waits == [1.0]
    assert ledger.clipped_seconds == 2.0
    assert ledger.spans_outside == 1


def test_worker_calls_join_their_op_by_key():
    log = SpanLog()

    def by_fingerprint(args, kwargs):
        return kwargs.get("fingerprint")

    submit = log.wrap("submit", "frontend", lambda **kw: None, key=by_fingerprint)
    solve = log.wrap("plan", "planner", lambda **kw: None, key=by_fingerprint)
    record = log.wrap("record", "obs", lambda: None)
    log.enter_op(7)
    submit(fingerprint="abc")
    worker = threading.Thread(target=lambda: (solve(fingerprint="abc"), record()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    log.exit_op(0.0, 1.0)
    solve(fingerprint="abc")  # outside any op on this thread: unrecorded
    names = sorted((span.name, span.op) for span in log.spans)
    assert names == [("op", 7), ("plan", 7), ("record", 7), ("submit", 7)]


# ------------------------------------------------------------- short runs
@pytest.mark.parametrize(
    "name, num_ops", [("serve-hot", 200), ("plan-cold", 8), ("elastic-replay", 2)]
)
def test_short_workload_passes_its_checks(name, num_ops):
    workload = WORKLOADS[name]
    state = workload.setup(5, num_ops, None)
    try:
        timed = workload.run_ops(state, None)
        checked = workload.check(state, timed)
    finally:
        workload.close(state)
    assert timed.failures == {}
    assert checked.failures == {}
    assert checked.sim_iteration_ms > 0
    assert timed.wall > 0 and all(latency > 0 for latency in timed.latencies)


@pytest.mark.parametrize(
    "name, num_ops, layer",
    [("serve-hot", 100, "cache"), ("plan-cold", 8, "placement"), ("elastic-replay", 1, "replan")],
)
def test_short_traced_pass_keeps_spans_inside_their_ops(name, num_ops, layer):
    log, timed, checked = traced_pass(WORKLOADS[name], 5, num_ops)
    ledger = layers.ledger(log, dict(enumerate(timed.latencies)))
    assert timed.failures == {} and checked.failures == {}
    assert ledger.clipped_seconds == 0.0 and ledger.spans_outside == 0
    assert ledger.calls[layer] >= num_ops
