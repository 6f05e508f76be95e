"""Observability wired through the planner, service, runner, simulator.

Covers the two quantitative guarantees the telemetry layer makes:

* with tracing **disabled**, instrumentation overhead on a planner solve is
  bounded well under 2%;
* under a **concurrent** plan-service worker pool, each thread's spans are
  well-nested (parents fully contain children, siblings never interleave) —
  the thread-local stack never crosses threads.
"""

import threading
import time

import pytest

from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.obs import SpanTracer, get_metrics, get_tracer
from repro.runtime.engine import RuntimeEngine
from repro.service import PlanService


@pytest.fixture(autouse=True)
def clean_global_obs():
    """Keep the process-wide tracer/registry pristine around each test."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.clear()
    yield
    tracer.clear()
    (tracer.enable if was_enabled else tracer.disable)()


@pytest.fixture
def cluster():
    return make_cluster(8, devices_per_node=4)


# ------------------------------------------------------------------- coverage
class TestSpanCoverage:
    def test_planner_emits_stage_spans_and_metrics(self, cluster, tiny_tasks):
        tracer = get_tracer()
        metrics = get_metrics()
        before = metrics.snapshot()
        with tracer.capture():
            ExecutionPlanner(cluster).plan(tiny_tasks)
        names = [r.name for r in tracer.records()]
        assert "planner.plan" in names
        for stage in (
            "graph_contraction",
            "scalability_estimation",
            "resource_allocation",
            "wavefront_scheduling",
            "device_placement",
        ):
            assert f"planner.{stage}" in names
        delta = metrics.snapshot().diff(before)
        stage_keys = [
            key
            for key in delta.histograms
            if key.startswith("planner.solve_seconds{stage=")
        ]
        assert len(stage_keys) == 5

    def test_stage_spans_nest_under_the_solve_span(self, cluster, tiny_tasks):
        tracer = get_tracer()
        with tracer.capture():
            ExecutionPlanner(cluster).plan(tiny_tasks)
        records = {r.name: r for r in tracer.records()}
        solve = records["planner.plan"]
        for stage in ("graph_contraction", "device_placement"):
            assert records[f"planner.{stage}"].parent_id == solve.span_id

    def test_stage_seconds_report_matches_span_durations(
        self, cluster, tiny_tasks
    ):
        """Satellite 1: the report number and the span are one measurement."""
        tracer = get_tracer()
        with tracer.capture():
            plan = ExecutionPlanner(cluster).plan(tiny_tasks)
        spans = {r.name: r for r in tracer.records()}
        for stage, seconds in plan.report.stage_seconds.items():
            assert spans[f"planner.{stage}"].duration == seconds

    def test_simulator_emits_wave_spans_and_simulated_durations(
        self, cluster, tiny_tasks
    ):
        plan = ExecutionPlanner(cluster).plan(tiny_tasks)
        tracer = get_tracer()
        metrics = get_metrics()
        before = metrics.snapshot()
        with tracer.capture():
            result = RuntimeEngine(plan).run_iteration()
        wave_spans = [r for r in tracer.records() if r.name == "simulator.wave"]
        assert len(wave_spans) == result.num_waves
        delta = metrics.snapshot().diff(before)
        waves = delta.histograms["simulator.wave_seconds"]
        assert waves.count == result.num_waves
        # Observations are *simulated* seconds: their sum is the iteration's
        # compute + boundary time, not the wall clock of simulating it.
        expected = result.breakdown.forward_backward + result.breakdown.send_recv
        assert waves.total == pytest.approx(expected, rel=1e-9)

    def test_service_emits_lifecycle_spans_and_cache_counters(
        self, cluster, tiny_tasks
    ):
        tracer = get_tracer()
        metrics = get_metrics()
        before = metrics.snapshot()
        with tracer.capture():
            with PlanService(ExecutionPlanner(cluster), num_workers=1) as service:
                service.plan(tiny_tasks, timeout=30.0)
                service.plan(tiny_tasks, timeout=30.0)
        names = [r.name for r in tracer.records()]
        assert names.count("service.submit") == 2
        assert names.count("service.solve") == 1  # second request was a hit
        assert "service.cache_put" in names
        assert "planner.plan" in names
        delta = metrics.snapshot().diff(before)
        assert delta.counters["service.cache{outcome=miss}"] == 1
        assert delta.counters["service.cache{outcome=hit}"] == 1

    def test_elastic_runner_emits_replan_spans_and_metrics(self):
        from repro.cluster.device import A800_SPEC
        from repro.elastic import ClusterEvent, EventTimeline
        from repro.elastic.events import DEVICE_FAILURE
        from repro.unified import UnifiedRunner, UnifiedScenario, UnifiedTimeline
        from tests.conftest import make_chain_task

        task = make_chain_task("audio_task", {"audio": 2, "lm": 2}, batch=8)
        scenario = UnifiedScenario(
            num_nodes=2,
            devices_per_node=4,
            device_spec=A800_SPEC,
            timeline=UnifiedTimeline(
                cluster_events=EventTimeline(
                    [ClusterEvent(DEVICE_FAILURE, at_iteration=10, node=0, device=1)]
                )
            ),
            total_iterations=30,
            task_pool={task.name: task},
            initial_tasks=(task.name,),
            name="obs-test",
        )
        tracer = get_tracer()
        metrics = get_metrics()
        before = metrics.snapshot()
        with tracer.capture():
            UnifiedRunner(scenario).run()
        names = [r.name for r in tracer.records()]
        assert "unified.replan" in names
        assert "unified.event_group" in names
        delta = metrics.snapshot().diff(before)
        replans = [
            key
            for key in delta.histograms
            if key.startswith("elastic.replan_seconds{policy=")
        ]
        assert replans, "no replan duration histogram recorded"
        planned = delta.counters.get("elastic.replans{outcome=planned}", 0)
        assert planned >= 2  # the initial plan and the post-failure replan


# ------------------------------------------------------------- overhead bound
class TestDisabledOverhead:
    def test_disabled_tracing_costs_under_two_percent_of_a_solve(
        self, cluster, tiny_tasks
    ):
        """Satellite 3: the no-op path is far below the 2% budget.

        Rather than racing two noisy wall-clock measurements against each
        other, bound the overhead analytically: (cost of one disabled span
        entry/exit) x (spans a solve executes) must be under 2% of the solve
        itself.  The margin is enormous — a disabled span is a singleton
        return plus a no-op context manager — so this stays robust on loaded
        CI machines.
        """
        tracer = get_tracer()
        assert not tracer.enabled

        # Per-call cost of the disabled path, amortised over many calls.
        calls = 20_000
        start = time.perf_counter()
        for _ in range(calls):
            with tracer.span("overhead.probe", category="planner", stage="x"):
                pass
        per_span = (time.perf_counter() - start) / calls

        # How many spans one solve executes (count them on a scratch tracer
        # substituted for real tracing so the measured solve stays untouched).
        counter = SpanTracer(enabled=True)
        planner = ExecutionPlanner(cluster)
        import repro.core.planner as planner_module

        original = planner_module.get_tracer
        planner_module.get_tracer = lambda: counter
        try:
            planner.plan(tiny_tasks)
        finally:
            planner_module.get_tracer = original
        spans_per_solve = len(counter)
        assert spans_per_solve >= 6  # the pipeline span plus five stages

        # The solve itself, with tracing disabled (best of three).
        solve_seconds = min(
            _timed_solve(ExecutionPlanner(cluster), tiny_tasks) for _ in range(3)
        )

        overhead = per_span * spans_per_solve
        assert overhead < 0.02 * solve_seconds, (
            f"disabled-tracer overhead {overhead * 1e6:.1f}us exceeds 2% of a "
            f"{solve_seconds * 1e3:.2f}ms solve"
        )


def _timed_solve(planner, tasks) -> float:
    start = time.perf_counter()
    planner.plan(tasks)
    return time.perf_counter() - start


# --------------------------------------------------------- concurrent nesting
class BarrierPlanner(ExecutionPlanner):
    """Planner that parks the first ``parties`` solves on a shared barrier.

    Forces the worker pool to actually overlap: no worker can finish its
    first solve until ``parties`` workers are inside one.
    """

    def __init__(self, cluster, parties: int) -> None:
        super().__init__(cluster)
        self._barrier = threading.Barrier(parties)
        self._released = threading.Event()

    def plan(self, workload, **kwargs):
        if not self._released.is_set():
            try:
                self._barrier.wait(timeout=10.0)
                self._released.set()
            except threading.BrokenBarrierError:
                pass  # later solves after the overlap window; just proceed
        return super().plan(workload, **kwargs)


class TestConcurrentNesting:
    def test_worker_pool_spans_are_well_nested_per_thread(
        self, cluster, chain_task_factory
    ):
        """Satellite 3: >=4 workers, per-thread spans nest without interleave."""
        workloads = [
            [
                chain_task_factory(
                    f"task{i}",
                    {"enc": 2 + i % 3, "lm": 2},
                    batch=4 + i,
                )
            ]
            for i in range(8)
        ]
        tracer = get_tracer()
        planner = BarrierPlanner(cluster, parties=4)
        with tracer.capture():
            # max_batch_size=1 stops one worker draining the whole queue in a
            # single batch; the barrier then parks four workers inside a solve
            # simultaneously, guaranteeing real overlap.
            with PlanService(planner, num_workers=4, max_batch_size=1) as service:
                futures = [service.submit(w) for w in workloads]
                for future in futures:
                    future.result(timeout=60.0)

        records = tracer.records()
        solves = [r for r in records if r.name == "service.solve"]
        assert len(solves) == 8
        worker_threads = {r.thread_id for r in solves}
        assert len(worker_threads) >= 2, "pool never ran solves concurrently"

        by_thread: dict[int, list] = {}
        for record in records:
            by_thread.setdefault(record.thread_id, []).append(record)

        epsilon = 1e-9
        for spans in by_thread.values():
            ordered = sorted(spans, key=lambda s: (s.start, -s.duration))
            stack: list = []
            for span in ordered:
                while stack and span.start >= stack[-1].end - epsilon:
                    stack.pop()
                for open_span in stack:
                    # Every still-open ancestor must fully contain this span:
                    # partial overlap would mean interleaved timing on one
                    # thread, i.e. a corrupted span stack.
                    assert span.end <= open_span.end + epsilon, (
                        f"{span.name} interleaves with {open_span.name}"
                    )
                stack.append(span)

        # Parent links agree with thread identity and containment.
        by_id = {r.span_id: r for r in records}
        for record in records:
            if record.parent_id is None:
                continue
            parent = by_id[record.parent_id]
            assert parent.thread_id == record.thread_id
            assert parent.start - epsilon <= record.start
            assert record.end <= parent.end + epsilon

    def test_each_solve_span_contains_a_planner_plan_child(
        self, cluster, tiny_tasks
    ):
        tracer = get_tracer()
        with tracer.capture():
            with PlanService(ExecutionPlanner(cluster), num_workers=4) as service:
                service.plan(tiny_tasks, timeout=60.0)
        records = tracer.records()
        by_id = {r.span_id: r for r in records}
        plans = [r for r in records if r.name == "planner.plan"]
        assert plans
        for plan_span in plans:
            assert plan_span.parent_id is not None
            assert by_id[plan_span.parent_id].name == "service.solve"
