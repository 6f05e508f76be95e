"""Tests for the hardened plan service: retries, breaker, ladder, shedding."""

import threading
from concurrent.futures import wait

import pytest

from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.faults import (
    PLANNER_ERROR,
    SLOW_SOLVE,
    WORKER_CRASH,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.service import (
    OUTCOME_MISS,
    RESPONSE_DEGRADED,
    RESPONSE_ERROR,
    RESPONSE_SERVED,
    RESPONSE_SHED,
    TIER_CACHE,
    TIER_FRESH,
    TIER_REFERENCE,
    CircuitBreaker,
    PlanCache,
    PlanResponse,
    PlanService,
    PlanServiceFleet,
    ResiliencePolicy,
    ServiceOverloadError,
)
from repro.obs import SloTracker, TelemetryJournal, reconstruct_requests
from repro.service.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)


@pytest.fixture
def cluster():
    return make_cluster(4, devices_per_node=4)


def injector_for(*events, sleeper=lambda _: None):
    """An injector over an explicit event list (no real stalls by default)."""
    return FaultInjector(FaultPlan(events), sleeper=sleeper)


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_jitter=1.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(deadline_seconds=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_queue_depth=0)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = ResiliencePolicy(
            backoff_base_seconds=0.01,
            backoff_multiplier=2.0,
            backoff_max_seconds=0.03,
            backoff_jitter=0.25,
            seed=5,
        )
        for attempt in range(1, 6):
            a = policy.backoff_seconds(3, attempt)
            b = policy.backoff_seconds(3, attempt)
            assert a == b  # seeded jitter: identical replay
            assert 0 < a <= 0.03 * 1.25
        # Different request / attempt / seed draw different jitter.
        assert policy.backoff_seconds(3, 1) != policy.backoff_seconds(4, 1)
        other = ResiliencePolicy(
            backoff_base_seconds=0.01, backoff_jitter=0.25, seed=6
        )
        assert policy.backoff_seconds(3, 1) != other.backoff_seconds(3, 1)

    def test_backoff_without_jitter_is_exponential(self):
        policy = ResiliencePolicy(
            backoff_base_seconds=0.01,
            backoff_multiplier=2.0,
            backoff_max_seconds=1.0,
            backoff_jitter=0.0,
        )
        assert policy.backoff_seconds(0, 1) == pytest.approx(0.01)
        assert policy.backoff_seconds(0, 2) == pytest.approx(0.02)
        assert policy.backoff_seconds(0, 3) == pytest.approx(0.04)
        assert policy.backoff_seconds(0, 0) == 0.0


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_and_recovers(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, reset_seconds=1.0, clock=lambda: clock[0]
        )
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.trips == 1
        clock[0] = 1.5  # past the reset window: half-open probe allowed
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=1.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 2

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_threshold_zero_disables(self):
        breaker = CircuitBreaker(failure_threshold=0, reset_seconds=1.0)
        for _ in range(10):
            breaker.record_failure()
        assert breaker.allow()
        assert breaker.trips == 0


class TestPlanResponse:
    def test_outcome_properties(self):
        served = PlanResponse(outcome=RESPONSE_SERVED, tier=TIER_FRESH, fingerprint="f")
        degraded = PlanResponse(
            outcome=RESPONSE_DEGRADED, tier=TIER_REFERENCE, fingerprint="f"
        )
        shed = PlanResponse(outcome=RESPONSE_SHED, tier=None, fingerprint="f")
        assert served.ok and not served.degraded
        assert degraded.ok and degraded.degraded
        assert not shed.ok

    def test_canonical_dict_has_no_objects(self):
        response = PlanResponse(
            outcome=RESPONSE_ERROR, tier=None, fingerprint="f", attempts=3, error="x"
        )
        document = response.canonical_dict()
        assert document == {
            "outcome": RESPONSE_ERROR,
            "tier": None,
            "fingerprint": "f",
            "plan_fingerprint": None,
            "attempts": 3,
            "error": "x",
            "trace_id": None,
            "tenant": None,
        }


class TestRetries:
    def test_injected_error_recovers_on_retry(self, cluster, tiny_tasks):
        injector = injector_for(
            FaultEvent(index=0, kind=PLANNER_ERROR, attempts=1)
        )
        policy = ResiliencePolicy(
            max_attempts=2, backoff_base_seconds=0.0, backoff_jitter=0.0
        )
        with PlanService(
            ExecutionPlanner(cluster),
            num_workers=1,
            resilience=policy,
            fault_injector=injector,
        ) as service:
            response = service.request(tiny_tasks, timeout=30.0)
        assert response.outcome == RESPONSE_SERVED
        assert response.tier == TIER_FRESH
        assert response.attempts == 2
        assert response.plan is not None
        assert injector.counts()[PLANNER_ERROR] == 1

    def test_worker_crash_respawns_and_recovers(self, cluster, tiny_tasks):
        injector = injector_for(
            FaultEvent(index=0, kind=WORKER_CRASH, attempts=1)
        )
        policy = ResiliencePolicy(
            max_attempts=2, backoff_base_seconds=0.0, backoff_jitter=0.0
        )
        with PlanService(
            lambda: ExecutionPlanner(cluster),
            num_workers=1,
            resilience=policy,
            fault_injector=injector,
        ) as service:
            response = service.request(tiny_tasks, timeout=30.0)
            assert response.outcome == RESPONSE_SERVED
            assert injector.counts()[WORKER_CRASH] == 1
            # The replacement worker keeps serving new requests.
            second = service.request(list(reversed(tiny_tasks)), timeout=30.0)
            assert second.outcome == RESPONSE_SERVED
            assert second.tier == TIER_CACHE
        assert service.pending_requests() == 0

    def test_slow_solve_injected_without_failing(self, cluster, tiny_tasks):
        stalls = []
        injector = injector_for(
            FaultEvent(index=0, kind=SLOW_SOLVE, delay_seconds=0.2),
            sleeper=stalls.append,
        )
        with PlanService(
            ExecutionPlanner(cluster),
            num_workers=1,
            resilience=ResiliencePolicy(max_attempts=1),
            fault_injector=injector,
        ) as service:
            response = service.request(tiny_tasks, timeout=30.0)
        assert response.outcome == RESPONSE_SERVED
        assert stalls == [pytest.approx(0.2)]


class FlakyFactory:
    """A planner factory whose calls in ``failing`` raise ``MemoryError``.

    Call 1 builds the service's prototype, so call 2 is the first worker
    planner.
    """

    def __init__(self, cluster, failing) -> None:
        self.cluster = cluster
        self.failing = failing
        self.calls = 0

    def __call__(self) -> ExecutionPlanner:
        self.calls += 1
        if self.calls in self.failing:
            raise MemoryError(f"factory call {self.calls}")
        return ExecutionPlanner(self.cluster)


#: Seconds within which every future of a failing factory must resolve.
FACTORY_FAILURE_BOUND = 10.0


class TestPlannerFactoryFailures:
    def test_factory_failing_once_fails_one_request_and_serves_the_next(
        self, cluster, tiny_tasks
    ):
        factory = FlakyFactory(cluster, failing={2})
        with PlanService(factory, num_workers=1) as service:
            first = service.request(tiny_tasks, timeout=FACTORY_FAILURE_BOUND)
            assert first.outcome == RESPONSE_ERROR
            assert "factory call 2" in first.error
            second = service.request(tiny_tasks[:1], timeout=FACTORY_FAILURE_BOUND)
            assert second.outcome == RESPONSE_SERVED
            assert second.tier == TIER_FRESH
            assert sum(worker.is_alive() for worker in service._workers) == 1
        assert factory.calls == 3

    def test_factory_failing_once_is_retried_under_a_policy(
        self, cluster, tiny_tasks
    ):
        factory = FlakyFactory(cluster, failing={2})
        policy = ResiliencePolicy(
            max_attempts=2, backoff_base_seconds=0.0, backoff_jitter=0.0
        )
        with PlanService(factory, num_workers=1, resilience=policy) as service:
            response = service.request(tiny_tasks, timeout=FACTORY_FAILURE_BOUND)
        assert response.outcome == RESPONSE_SERVED
        assert response.tier == TIER_FRESH
        assert response.attempts == 2

    @pytest.mark.parametrize("with_policy", [False, True])
    def test_factory_always_failing_resolves_every_request_error(
        self, cluster, tiny_tasks, with_policy
    ):
        factory = FlakyFactory(cluster, failing=range(2, 10**6))
        policy = (
            ResiliencePolicy(
                max_attempts=2,
                backoff_base_seconds=0.0,
                backoff_jitter=0.0,
                allow_reference=False,
            )
            if with_policy
            else None
        )
        slo = SloTracker()
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks[1:]]
        with PlanService(
            factory, num_workers=1, resilience=policy, slo=slo
        ) as service:
            futures = [service.submit(workload) for workload in workloads]
            _, pending = wait(futures, timeout=FACTORY_FAILURE_BOUND)
            assert not pending
            assert all(future.exception() is not None for future in futures)
            responses = [service._response_of(future) for future in futures]
        assert [r.outcome for r in responses] == [RESPONSE_ERROR] * len(workloads)
        report = slo.report()
        assert report.count == len(workloads)
        assert report.error_rate == 1.0
        assert service.stats.errors == len(workloads)


class PutFailingOnceCache(PlanCache):
    """A plan cache whose ``put`` number ``fail_at`` (0-based) raises,
    outside the solve's guard."""

    def __init__(self, fail_at: int = 0) -> None:
        super().__init__(capacity=8)
        self.fail_at = fail_at
        self.attempted_puts = 0

    def put(self, fingerprint, plan, payload=None) -> None:
        ordinal = self.attempted_puts
        self.attempted_puts += 1
        if ordinal == self.fail_at:
            raise OSError("cache fill failed")
        super().put(fingerprint, plan, payload)


class HeldPlanner(ExecutionPlanner):
    """Planner whose solves wait for ``gate``; ``started`` marks the first."""

    def __init__(self, cluster) -> None:
        super().__init__(cluster)
        self.started = threading.Event()
        self.gate = threading.Event()

    def plan(self, workload, **kwargs):
        self.started.set()
        assert self.gate.wait(timeout=FACTORY_FAILURE_BOUND), "gate never opened"
        return super().plan(workload, **kwargs)


class TestFaultOutsideTheSolveGuard:
    def test_failing_cache_fill_fails_its_request_and_the_worker_serves_on(
        self, cluster, tiny_tasks
    ):
        slo = SloTracker()
        with PlanService(
            ExecutionPlanner(cluster),
            cache=PutFailingOnceCache(),
            num_workers=1,
            slo=slo,
        ) as service:
            live = sum(worker.is_alive() for worker in service._workers)
            first = service.request(tiny_tasks, timeout=FACTORY_FAILURE_BOUND)
            assert first.outcome == RESPONSE_ERROR
            assert first.error == "cache fill failed"
            second = service.request(tiny_tasks[:1], timeout=FACTORY_FAILURE_BOUND)
            assert second.outcome == RESPONSE_SERVED
            assert second.tier == TIER_FRESH
            assert sum(worker.is_alive() for worker in service._workers) == live == 1
        report = slo.report()
        assert (report.count, report.error_rate) == (2, 0.5)
        assert service.stats.errors == 1

    def test_the_rest_of_the_batch_is_served(self, cluster, chain_task_factory):
        """Three requests queued behind a held solve reach the worker as one
        batch; the first group's fill fails and the other two are served."""
        workloads = [
            [chain_task_factory(f"batch-{i}", {"lm": i + 1})] for i in range(4)
        ]
        planner = HeldPlanner(cluster)
        with PlanService(
            planner, cache=PutFailingOnceCache(fail_at=1), num_workers=1
        ) as service:
            held = service.submit(workloads[0])
            assert planner.started.wait(timeout=FACTORY_FAILURE_BOUND)
            batch = [service.submit(workload) for workload in workloads[1:]]
            planner.gate.set()
            _, pending = wait([held, *batch], timeout=FACTORY_FAILURE_BOUND)
            assert not pending
            assert held.result().fingerprint == service.fingerprint(workloads[0])
            with pytest.raises(OSError, match="cache fill failed"):
                batch[0].result()
            for future, workload in zip(batch[1:], workloads[2:]):
                assert future.result().fingerprint == service.fingerprint(workload)
            assert sum(worker.is_alive() for worker in service._workers) == 1
        assert service.stats.errors == 1
        assert service.stats.count(OUTCOME_MISS) == 3

    def test_coalesced_followers_of_the_failing_group_resolve_error(
        self, cluster, tiny_tasks
    ):
        """A follower coalesced onto the failing leader shares its error, and
        the journal closes both lifecycles as errors."""
        journal, slo = TelemetryJournal(), SloTracker()
        planner = HeldPlanner(cluster)
        with PlanService(
            planner,
            cache=PutFailingOnceCache(fail_at=1),
            num_workers=1,
            journal=journal,
            slo=slo,
        ) as service:
            held = service.submit(tiny_tasks[:1])
            assert planner.started.wait(timeout=FACTORY_FAILURE_BOUND)
            leader = service.submit(tiny_tasks)
            follower = service.submit(list(reversed(tiny_tasks)))
            assert follower is leader
            planner.gate.set()
            held.result(timeout=FACTORY_FAILURE_BOUND)
            with pytest.raises(OSError, match="cache fill failed"):
                leader.result(timeout=FACTORY_FAILURE_BOUND)
        fingerprint = service.fingerprint(tiny_tasks)
        failed = [
            life
            for life in reconstruct_requests(journal.events()).values()
            if life.fingerprint == fingerprint
        ]
        assert len(failed) == 2
        assert all(life.complete for life in failed)
        assert [life.outcome for life in failed] == [RESPONSE_ERROR] * 2
        assert sum(life.leader is not None for life in failed) == 1
        report = slo.report()
        assert (report.count, report.error_rate) == (3, pytest.approx(2 / 3))

    def test_a_failed_fill_frees_its_fingerprint_for_a_fresh_solve(
        self, cluster, tiny_tasks
    ):
        """The failed request leaves no in-flight slot behind: the next
        request for its workload is a new miss, solved and cached."""
        with PlanService(
            ExecutionPlanner(cluster), cache=PutFailingOnceCache(), num_workers=1
        ) as service:
            failed = service.request(tiny_tasks, timeout=FACTORY_FAILURE_BOUND)
            assert failed.outcome == RESPONSE_ERROR
            assert service.pending_requests() == 0
            assert service.fingerprint(tiny_tasks) not in service.cache
            retried = service.request(tiny_tasks, timeout=FACTORY_FAILURE_BOUND)
            assert (retried.outcome, retried.tier) == (RESPONSE_SERVED, TIER_FRESH)
            assert service.fingerprint(tiny_tasks) in service.cache
            again = service.request(tiny_tasks, timeout=FACTORY_FAILURE_BOUND)
            assert again.tier == TIER_CACHE
        assert service.stats.count(OUTCOME_MISS) == 1
        assert service.stats.errors == 1


class TestDegradationLadder:
    def _always_failing_injector(self):
        return injector_for(
            FaultEvent(index=0, kind=PLANNER_ERROR, attempts=99)
        )

    def test_reference_tier_serves_when_retries_exhaust(self, cluster, tiny_tasks):
        policy = ResiliencePolicy(
            max_attempts=2,
            backoff_base_seconds=0.0,
            backoff_jitter=0.0,
        )
        with PlanService(
            ExecutionPlanner(cluster),
            num_workers=1,
            resilience=policy,
            fault_injector=self._always_failing_injector(),
        ) as service:
            response = service.request(tiny_tasks, timeout=30.0)
        assert response.outcome == RESPONSE_DEGRADED
        assert response.tier == TIER_REFERENCE
        assert response.attempts == 2
        # The reference-path plan is content-identical to the optimized one.
        direct = ExecutionPlanner(cluster).plan(tiny_tasks)
        assert response.plan.fingerprint == direct.fingerprint

    def test_reference_plan_serves_later_requests_from_cache(
        self, cluster, tiny_tasks
    ):
        """An unoptimized prototype has the reference planner's
        configuration, so the rung applies; its plan is cached under the
        request's fingerprint and the next request is a plain hit."""
        policy = ResiliencePolicy(
            max_attempts=1, backoff_base_seconds=0.0, backoff_jitter=0.0
        )
        with PlanService(
            ExecutionPlanner(cluster, optimized=False),
            num_workers=1,
            resilience=policy,
            fault_injector=self._always_failing_injector(),
        ) as service:
            degraded = service.request(tiny_tasks, timeout=30.0)
            hit = service.request(tiny_tasks, timeout=30.0)
        assert degraded.outcome == RESPONSE_DEGRADED
        assert degraded.tier == TIER_REFERENCE
        assert hit.outcome == RESPONSE_SERVED
        assert hit.tier == TIER_CACHE
        assert hit.plan is degraded.plan

    def test_reference_tier_skips_another_configuration(self, cluster, tiny_tasks):
        """The reference planner has the default configuration; a service
        planning under another one fingerprints its requests for plans the
        reference planner would not produce, so the rung must not serve (or
        cache) one."""
        policy = ResiliencePolicy(
            max_attempts=1, backoff_base_seconds=0.0, backoff_jitter=0.0
        )
        with PlanService(
            ExecutionPlanner(cluster, placement_strategy="sequential"),
            num_workers=1,
            resilience=policy,
            fault_injector=self._always_failing_injector(),
        ) as service:
            response = service.request(tiny_tasks, timeout=30.0)
        assert response.outcome == RESPONSE_ERROR
        assert response.plan is None
        assert "ladder" in (response.error or "")
        assert response.fingerprint not in service.cache

    def test_exhausted_ladder_is_an_error(self, cluster, tiny_tasks):
        policy = ResiliencePolicy(max_attempts=1, allow_reference=False)
        with PlanService(
            ExecutionPlanner(cluster),
            num_workers=1,
            resilience=policy,
            fault_injector=self._always_failing_injector(),
        ) as service:
            response = service.request(tiny_tasks, timeout=30.0)
        assert response.outcome == RESPONSE_ERROR
        assert response.plan is None
        assert "ladder" in (response.error or "")
        assert service.stats.errors == 1


class TestBreakerInService:
    def test_breaker_opens_and_short_circuits(self, cluster, chain_task_factory):
        clock = [0.0]
        policy = ResiliencePolicy(
            max_attempts=1,
            breaker_failure_threshold=2,
            breaker_reset_seconds=1.0,
            allow_reference=False,
        )
        injector = injector_for(
            FaultEvent(index=0, kind=PLANNER_ERROR, attempts=99),
            FaultEvent(index=1, kind=PLANNER_ERROR, attempts=99),
        )
        service = PlanService(
            ExecutionPlanner(cluster),
            num_workers=1,
            resilience=policy,
            fault_injector=injector,
        )
        service.breaker = CircuitBreaker(
            failure_threshold=2, reset_seconds=1.0, clock=lambda: clock[0]
        )
        workloads = [
            [chain_task_factory(f"breaker-{i}", {"lm": 2})] for i in range(4)
        ]
        try:
            assert service.request(workloads[0], timeout=30.0).outcome == RESPONSE_ERROR
            assert service.request(workloads[1], timeout=30.0).outcome == RESPONSE_ERROR
            assert service.breaker.state == BREAKER_OPEN
            # Open breaker: the solve is never attempted (no fault consumed).
            blocked = service.request(workloads[2], timeout=30.0)
            assert blocked.outcome == RESPONSE_ERROR
            assert "breaker" in (blocked.error or "")
            assert injector.counts()[PLANNER_ERROR] == 2
            # Past the reset window a half-open probe succeeds and closes it.
            clock[0] = 2.0
            probe = service.request(workloads[3], timeout=30.0)
            assert probe.outcome == RESPONSE_SERVED
            assert service.breaker.state == BREAKER_CLOSED
        finally:
            service.close()


class TestAdmissionControl:
    def test_overload_sheds_instead_of_queueing(
        self, cluster, tiny_tasks, chain_task_factory
    ):
        import threading

        gate = threading.Event()
        release = threading.Event()

        class Blocking(ExecutionPlanner):
            def plan(self, workload, **kwargs):
                gate.set()
                assert release.wait(timeout=10.0)
                return super().plan(workload, **kwargs)

        policy = ResiliencePolicy(max_queue_depth=1)
        service = PlanService(
            Blocking(cluster), num_workers=1, resilience=policy
        )
        try:
            first = service.submit(tiny_tasks)
            assert gate.wait(timeout=10.0)
            shed = service.request([chain_task_factory("shed-me", {"lm": 2})])
            assert shed.outcome == RESPONSE_SHED
            assert service.stats.count("shed") == 1
            with pytest.raises(ServiceOverloadError):
                service.plan([chain_task_factory("shed-too", {"lm": 2})])
            release.set()
            assert first.result(timeout=30.0) is not None
        finally:
            release.set()
            service.close()


class TestDeadlines:
    def test_deadline_exceeded_degrades(self, cluster, tiny_tasks):
        import time as _time

        policy = ResiliencePolicy(
            max_attempts=3,
            deadline_seconds=0.01,
            backoff_base_seconds=0.0,
            backoff_jitter=0.0,
        )
        injector = FaultInjector(
            FaultPlan(
                [
                    FaultEvent(index=0, kind=SLOW_SOLVE, delay_seconds=0.05),
                    FaultEvent(index=0, kind=PLANNER_ERROR, attempts=1),
                ]
            ),
            sleeper=_time.sleep,  # a real stall, so the deadline really passes
        )
        with PlanService(
            ExecutionPlanner(cluster),
            num_workers=1,
            resilience=policy,
            fault_injector=injector,
        ) as service:
            response = service.request(tiny_tasks, timeout=30.0)
        # Attempt 0 stalls past the deadline and fails; the deadline check
        # then routes the request to the ladder instead of retrying.
        assert response.outcome == RESPONSE_DEGRADED
        assert response.tier == TIER_REFERENCE
        assert response.attempts == 1


class TestFleetResilience:
    def test_one_breaker_guards_every_fingerprint_of_a_fleet(
        self, cluster, chain_task_factory
    ):
        """A failure on one workload opens the fleet's one breaker, so a
        different workload skips its solve and takes the reference rung."""
        policy = ResiliencePolicy(
            max_attempts=1,
            breaker_failure_threshold=1,
            breaker_reset_seconds=60.0,
        )
        injector = injector_for(FaultEvent(index=0, kind=PLANNER_ERROR))
        workloads = [
            [chain_task_factory(f"fleet-breaker-{i}", {"lm": i + 1})]
            for i in range(2)
        ]
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster),
            num_workers=1,
            resilience=policy,
            fault_injector=injector,
        ) as fleet:
            first = fleet.request(workloads[0], timeout=30.0)
            assert fleet.service.breaker.state == BREAKER_OPEN
            second = fleet.request(workloads[1], timeout=30.0)
        assert (first.outcome, first.tier) == (RESPONSE_DEGRADED, TIER_REFERENCE)
        assert (second.outcome, second.tier) == (RESPONSE_DEGRADED, TIER_REFERENCE)
        assert second.fingerprint != first.fingerprint
        assert (first.attempts, second.attempts) == (1, 0)
        assert injector.counts()[PLANNER_ERROR] == 1
