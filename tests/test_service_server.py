"""Tests for the concurrent plan service (single-flight, batching, caching)."""

import threading

import pytest

from repro.cluster.topology import make_cluster
from repro.core.plan import ExecutionPlan
from repro.core.planner import ExecutionPlanner
from repro.service import (
    OUTCOME_COALESCED,
    OUTCOME_HIT,
    OUTCOME_MISS,
    PlanCache,
    PlanService,
    ServiceError,
)


class GatedPlanner(ExecutionPlanner):
    """Planner whose ``plan`` blocks on an event and counts invocations.

    ``entered`` is set once a worker is inside ``plan``, i.e. has dequeued a
    request.
    """

    def __init__(self, cluster, gate: threading.Event) -> None:
        super().__init__(cluster)
        self.gate = gate
        self.entered = threading.Event()
        self.calls = 0
        self._count_lock = threading.Lock()

    def plan(self, workload, **kwargs) -> ExecutionPlan:
        with self._count_lock:
            self.calls += 1
        self.entered.set()
        assert self.gate.wait(timeout=10.0), "test gate never opened"
        return super().plan(workload, **kwargs)


@pytest.fixture
def cluster():
    return make_cluster(4, devices_per_node=4)


class TestBasicServing:
    def test_plan_matches_direct_planner(self, cluster, tiny_tasks):
        direct = ExecutionPlanner(cluster).plan(tiny_tasks)
        with PlanService(ExecutionPlanner(cluster), num_workers=1) as service:
            served = service.plan(tiny_tasks, timeout=30.0)
        assert served.fingerprint == direct.fingerprint
        assert served.schedule.makespan == pytest.approx(direct.schedule.makespan)

    def test_repeat_requests_hit_the_cache(self, cluster, tiny_tasks):
        with PlanService(ExecutionPlanner(cluster), num_workers=1) as service:
            first = service.plan(tiny_tasks, timeout=30.0)
            second = service.plan(tiny_tasks, timeout=30.0)
            third = service.plan(list(reversed(tiny_tasks)), timeout=30.0)
        assert second is first  # served straight from the cache
        assert third is first  # canonical fingerprint ignores task order
        assert service.stats.count(OUTCOME_MISS) == 1
        assert service.stats.count(OUTCOME_HIT) == 2
        assert service.stats.hit_rate == pytest.approx(2 / 3)

    def test_cached_payload_byte_identical_across_hits(self, cluster, tiny_tasks):
        with PlanService(ExecutionPlanner(cluster), num_workers=1) as service:
            fingerprint = service.plan(tiny_tasks, timeout=30.0).fingerprint
            first = service.cache.get_payload(fingerprint)
            service.plan(tiny_tasks, timeout=30.0)
            second = service.cache.get_payload(fingerprint)
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_planner_factory_builds_per_worker_planners(self, cluster, tiny_tasks):
        with PlanService(
            lambda: ExecutionPlanner(cluster), num_workers=2
        ) as service:
            plan = service.plan(tiny_tasks, timeout=30.0)
        assert plan.fingerprint is not None

    def test_invalid_configuration_rejected(self, cluster):
        with pytest.raises(ServiceError):
            PlanService(ExecutionPlanner(cluster), num_workers=0)
        with pytest.raises(ServiceError):
            PlanService(ExecutionPlanner(cluster), max_batch_size=0)
        with pytest.raises(ServiceError):
            PlanService("not a planner")  # type: ignore[arg-type]


class TestSingleFlight:
    def test_identical_inflight_requests_share_one_future(self, cluster, tiny_tasks):
        gate = threading.Event()
        planner = GatedPlanner(cluster, gate)
        service = PlanService(planner, num_workers=2)
        try:
            futures = [service.submit(tiny_tasks) for _ in range(5)]
            assert all(f is futures[0] for f in futures[1:])
            assert service.pending_requests() == 1
            gate.set()
            plan = futures[0].result(timeout=30.0)
        finally:
            gate.set()
            service.close()
        assert planner.calls == 1
        assert isinstance(plan, ExecutionPlan)
        assert service.stats.count(OUTCOME_MISS) == 1
        assert service.stats.count(OUTCOME_COALESCED) == 4

    def test_distinct_requests_get_distinct_futures(self, cluster, tiny_tasks):
        gate = threading.Event()
        planner = GatedPlanner(cluster, gate)
        service = PlanService(planner, num_workers=2)
        try:
            one = service.submit(tiny_tasks)
            other = service.submit(tiny_tasks[:1])
            assert one is not other
            gate.set()
            assert one.result(timeout=30.0).fingerprint != other.result(
                timeout=30.0
            ).fingerprint
        finally:
            gate.set()
            service.close()
        assert planner.calls == 2

    def test_concurrent_submitters_coalesce(self, cluster, tiny_tasks):
        gate = threading.Event()
        planner = GatedPlanner(cluster, gate)
        service = PlanService(planner, num_workers=2)
        results = []
        errors = []

        def client():
            try:
                results.append(service.plan(tiny_tasks, timeout=30.0))
            except Exception as exc:  # pragma: no cover - surfaced via assert
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            gate.set()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            gate.set()
            service.close()
        assert not errors
        assert len(results) == 8
        # Every client observed the same plan, computed at most twice (a client
        # may race ahead of the inflight registration and trigger one rerun).
        assert len({id(plan) for plan in results}) <= 2
        assert planner.calls <= 2


class TestErrorsAndShutdown:
    def test_planning_error_propagates(self, cluster):
        with PlanService(ExecutionPlanner(cluster), num_workers=1) as service:
            future = service.submit([])  # planner rejects empty task lists
            with pytest.raises(ValueError):
                future.result(timeout=30.0)
            assert service.stats.errors == 1
        assert service.pending_requests() == 0

    def test_submit_after_close_rejected(self, cluster, tiny_tasks):
        service = PlanService(ExecutionPlanner(cluster), num_workers=1)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(tiny_tasks)

    def test_shared_cache_across_services(self, cluster, tiny_tasks):
        cache = PlanCache()
        with PlanService(ExecutionPlanner(cluster), cache=cache, num_workers=1) as a:
            plan = a.plan(tiny_tasks, timeout=30.0)
        with PlanService(ExecutionPlanner(cluster), cache=cache, num_workers=1) as b:
            assert b.plan(tiny_tasks, timeout=30.0) is plan
        assert b.stats.count(OUTCOME_HIT) == 1


class TestIncrementalPrototype:
    def test_incremental_plan_forwards_fingerprint(self, cluster, tiny_tasks):
        from repro.service import IncrementalPlanner

        incremental = IncrementalPlanner(ExecutionPlanner(cluster))
        plan = incremental.plan(tiny_tasks, fingerprint="pinned")
        assert plan.fingerprint == "pinned"

    def test_rejects_non_planner(self):
        with pytest.raises(ServiceError):
            PlanService(object())  # type: ignore[arg-type]

    def test_rejects_incremental_planner(self, cluster):
        """A service plans with an ExecutionPlanner; the curve-pooling
        wrapper is the unified runner's planner, so neither it nor a factory
        of it is a servable prototype."""
        from repro.service import IncrementalPlanner

        incremental = IncrementalPlanner(ExecutionPlanner(cluster))
        for planner in (incremental, lambda: incremental):
            with pytest.raises(ServiceError, match="ExecutionPlanner"):
                PlanService(planner)  # type: ignore[arg-type]


class TestShutdownUnderLoad:
    def test_close_resolves_queued_requests_instead_of_hanging(
        self, cluster, tiny_tasks, chain_task_factory
    ):
        """cancel_pending=True fails queued work fast; nothing hangs."""
        gate = threading.Event()
        planner = GatedPlanner(cluster, gate)
        service = PlanService(planner, num_workers=1, max_batch_size=1)
        in_flight = service.submit(tiny_tasks)
        queued = [
            service.submit([chain_task_factory(f"queued-{i}", {"lm": 2})])
            for i in range(2)
        ]
        # Close only once the worker holds the in-flight request; before
        # that, cancel_pending would cancel it as queued work.
        assert planner.entered.wait(timeout=30.0)

        closer = threading.Thread(
            target=service.close, kwargs={"cancel_pending": True}
        )
        closer.start()
        gate.set()  # let the in-flight solve finish
        closer.join(timeout=30.0)
        assert not closer.is_alive()

        assert in_flight.result(timeout=30.0) is not None
        for future in queued:
            assert future.done()
            with pytest.raises(ServiceError):
                future.result(timeout=0)
        assert service.pending_requests() == 0

    def test_default_close_still_plans_queued_requests(
        self, cluster, tiny_tasks, chain_task_factory
    ):
        gate = threading.Event()
        planner = GatedPlanner(cluster, gate)
        service = PlanService(planner, num_workers=1, max_batch_size=1)
        first = service.submit(tiny_tasks)
        second = service.submit([chain_task_factory("later", {"lm": 2})])
        closer = threading.Thread(target=service.close)
        closer.start()
        gate.set()
        closer.join(timeout=30.0)
        assert first.result(timeout=30.0) is not None
        assert second.result(timeout=30.0) is not None


class TestTimeoutCleanup:
    def test_timed_out_fingerprint_is_released(self, cluster, tiny_tasks):
        """plan(timeout=...) must not leave the fingerprint latched onto the
        abandoned future: a later identical request gets a fresh resolution."""
        gate = threading.Event()
        planner = GatedPlanner(cluster, gate)
        with PlanService(planner, num_workers=1) as service:
            with pytest.raises(TimeoutError):
                service.plan(tiny_tasks, timeout=0.05)
            assert service.pending_requests() == 0  # slot released
            gate.set()
            # The resubmission is served (cache hit once the abandoned
            # solve lands, or a fresh solve) — not stuck on the old future.
            plan = service.plan(tiny_tasks, timeout=30.0)
            assert plan is not None
            assert planner.calls >= 1

    def test_request_timeout_returns_error_response(self, cluster, tiny_tasks):
        gate = threading.Event()
        planner = GatedPlanner(cluster, gate)
        with PlanService(planner, num_workers=1) as service:
            response = service.request(tiny_tasks, timeout=0.05)
            assert response.outcome == "error"
            assert "timeout" in (response.error or "")
            gate.set()


class TestRequestApi:
    def test_request_served_fresh_then_cache(self, cluster, tiny_tasks):
        with PlanService(ExecutionPlanner(cluster), num_workers=1) as service:
            first = service.request(tiny_tasks, timeout=30.0)
            second = service.request(tiny_tasks, timeout=30.0)
        assert first.ok and first.tier == "fresh"
        assert second.ok and second.tier == "cache"
        assert first.plan is second.plan
        assert first.fingerprint == second.fingerprint

    def test_request_folds_planner_errors_into_the_response(self, cluster):
        with PlanService(ExecutionPlanner(cluster), num_workers=1) as service:
            response = service.request([], timeout=30.0)
        assert response.outcome == "error"
        assert response.plan is None
        assert response.error
