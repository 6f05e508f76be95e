"""Unified runtime: incremental replanning latency vs the full-replan reference.

Replays an in-place job-churn scenario — a Multitask-CLIP job resubmitted
mid-run with a new name and weight, architecturally identical — through the
unified event-driven runtime in both planner modes.  The resubmission misses
the plan cache (weight is part of the canonical fingerprint) but is a full
structural match, so incremental replanning adopts the previous plan's
allocations, schedule and placement wholesale and only re-runs contraction
plus pooled curve estimation.

Gated claims:

* the canonical reports of the two modes are byte-identical (equivalence is
  additionally pinned by ``tests/test_unified_runtime.py``),
* the adopted-MetaLevel count and replan counts are exact invariants,
* the measured single-event replan latency is a multiple of the full-replan
  reference at the largest benchmarked plan size — gated as a speedup ratio
  (machine speed cancels), with a generous threshold because both terms are
  wall-clock.  The ratio is the median of per-pair ratios over ``PAIRS``
  pairs, each pair running the two modes back to back, alternating which
  runs first, so a slow stretch of the host lands on both sides of a pair.

The replan latencies land in the ``elastic.replan_seconds{policy=...}``
histograms either way; the registry delta of the largest incremental run is
exported through :meth:`MetricsRegistry.to_bench_metrics` so the BENCH schema
carries the histogram evidence next to the derived ratio.
"""

import dataclasses
import json
from statistics import median

from bench_utils import PairedRatio, emit, paired_ratio_median

from repro.bench import Metric, informational, invariant, register_benchmark
from repro.cluster.device import A800_SPEC
from repro.elastic import SlowdownThresholdPolicy
from repro.models.multitask_clip import CLIP_TASKS, build_clip_task, multitask_clip_tasks
from repro.obs import get_metrics
from repro.unified import UnifiedRunner, UnifiedScenario, job_churn_timeline

NUM_TASKS = 10
TOTAL_ITERATIONS = 200
CHURN_AT = 100
#: GPU counts benchmarked; the speedup gate applies to the largest.
SIZES = (16, 32, 64)
#: Alternating (incremental, full) pairs per size.
PAIRS = 11


def _scenario(num_gpus: int) -> UnifiedScenario:
    tasks = multitask_clip_tasks(NUM_TASKS)
    initial = tuple(task.name for task in tasks)
    resubmitted = build_clip_task(
        dataclasses.replace(CLIP_TASKS[1], name=f"{initial[1]}_resubmit")
    )
    resubmitted.weight = 2.0
    pool = {task.name: task for task in tasks}
    pool[resubmitted.name] = resubmitted
    per_node = 8
    return UnifiedScenario(
        num_nodes=num_gpus // per_node,
        devices_per_node=per_node,
        device_spec=A800_SPEC,
        timeline=job_churn_timeline(
            initial, [(initial[1], resubmitted.name)], [CHURN_AT]
        ),
        total_iterations=TOTAL_ITERATIONS,
        task_pool=pool,
        initial_tasks=initial,
        name=f"job-churn-{num_gpus}gpu",
    )


def _run(num_gpus: int, incremental: bool):
    """One run of one mode; returns (replan seconds, (result, registry delta))."""
    metrics = get_metrics()
    before = metrics.snapshot()
    result = UnifiedRunner(
        _scenario(num_gpus),
        policy=SlowdownThresholdPolicy(threshold=0.1),
        incremental=incremental,
    ).run()
    return result.replan_measured_seconds, (result, metrics.snapshot().diff(before))


def _measure(num_gpus: int) -> PairedRatio:
    """``PAIRS`` alternating (incremental, full) pairs of runs.

    The ratio is the median per-pair speedup, full over incremental replan
    time; the payloads are the last runs' ``(result, registry delta)``.
    """
    return paired_ratio_median(
        lambda: _run(num_gpus, incremental=True),
        lambda: _run(num_gpus, incremental=False),
        PAIRS,
    )


@register_benchmark(
    "unified_runtime",
    stage="unified",
    tags=("unified", "elastic", "dynamic", "smoke"),
    description="Incremental vs full replan latency on in-place job churn",
)
def bench_unified_runtime(ctx):
    metrics: dict[str, Metric] = {}
    largest = SIZES[-1]
    for num_gpus in SIZES:
        timing = _measure(num_gpus)
        (inc, inc_delta), (full, _) = timing.first, timing.second
        assert json.dumps(inc.to_document(), sort_keys=True) == json.dumps(
            full.to_document(), sort_keys=True
        ), f"incremental and full reports diverged at {num_gpus} GPUs"
        gate = num_gpus == largest
        metrics[f"replan_speedup_{num_gpus}gpu"] = Metric(
            timing.ratio,
            "x",
            higher_is_better=True,
            # Generous: both terms are wall-clock; the committed baseline
            # documents ~3x, the gate only rejects a collapse of the reuse
            # path (below ~half the baseline ratio).
            regression_threshold=0.5 if gate else None,
        )
        metrics[f"levels_reused_{num_gpus}gpu"] = invariant(
            float(inc.levels_reused), "levels"
        )
        metrics[f"incremental_replan_ms_{num_gpus}gpu"] = informational(
            median(timing.first_seconds) * 1e3, "ms"
        )
        metrics[f"full_replan_ms_{num_gpus}gpu"] = informational(
            median(timing.second_seconds) * 1e3, "ms"
        )
        if gate:
            metrics["replan_count"] = invariant(float(inc.replan_count), "replans")
            metrics["cumulative_slowdown"] = Metric(inc.cumulative_slowdown, "x")
            # Histogram evidence: the replan latencies of the incremental run
            # as recorded in the shared elastic metric schema.
            metrics.update(
                get_metrics().to_bench_metrics(
                    prefix="registry.", snapshot=inc_delta
                )
            )
    return metrics


def test_unified_runtime_speedup(once_per_session_cache):
    timing = _measure(SIZES[-1])
    (inc, _), (full, _) = timing.first, timing.second
    speedup = timing.ratio

    assert json.dumps(inc.to_document(), sort_keys=True) == json.dumps(
        full.to_document(), sort_keys=True
    )
    # The churn replan adopts every MetaLevel (full structural match) ...
    (outcome,) = inc.outcomes
    assert outcome.replan is not None and not outcome.replan.cache_hit
    assert outcome.replan.levels_reused > 0
    assert inc.levels_reused == outcome.replan.levels_reused
    assert full.levels_reused == 0
    # ... which makes the single-event replan decisively faster.  The hard
    # 2x claim lives in the committed baseline; this assertion only guards
    # against the reuse path silently not engaging.
    assert speedup > 1.3

    emit(
        "unified_runtime",
        "\n".join(
            [
                f"scenario          : {inc.scenario_name}",
                f"replans           : {inc.replan_count} "
                f"({inc.task_set_changes} task-set changes)",
                f"levels adopted    : {inc.levels_reused}",
                f"incremental replan: {inc.replan_measured_seconds * 1e3:.2f} ms",
                f"full replan       : {full.replan_measured_seconds * 1e3:.2f} ms",
                f"speedup           : {speedup:.2f}x",
            ]
        ),
    )
