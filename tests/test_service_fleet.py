"""Tests for the serving fleet: one plan service behind the fleet's name.

Covers that a fleet serves the planner's plans, coalesces one fingerprint
across entry points and concurrent clients, serves its service's cache,
memo, breaker and telemetry sinks, journals, counts and serves exactly
what a bare service does, and warm-starts from a :class:`PlanStore`
composed with its cache.
"""

import json
import re
import threading
import time
from concurrent.futures import wait

import pytest

from repro.cluster.topology import make_cluster
from repro.core.plan import ExecutionPlan
from repro.core.planner import ExecutionPlanner
from repro.obs import SloTracker, TelemetryJournal
from repro.service import (
    OUTCOME_COALESCED,
    OUTCOME_HIT,
    OUTCOME_MISS,
    RESPONSE_SERVED,
    TIER_CACHE,
    TIER_FRESH,
    PlanCache,
    PlanService,
    PlanServiceFleet,
    PlanStore,
    ResiliencePolicy,
    ServiceError,
)
from repro.service.resilience import BREAKER_OPEN


@pytest.fixture
def cluster():
    return make_cluster(4, devices_per_node=4)


class CountingFactory:
    """Planner factory counting the planners it builds and their solves."""

    def __init__(self, cluster, gate: threading.Event | None = None) -> None:
        self.cluster = cluster
        self.gate = gate
        self.builds = 0
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self) -> ExecutionPlanner:
        factory = self
        with self._lock:
            self.builds += 1

        class _Planner(ExecutionPlanner):
            def plan(self, workload, **kwargs) -> ExecutionPlan:
                with factory._lock:
                    factory.calls += 1
                if factory.gate is not None:
                    assert factory.gate.wait(timeout=10.0), "gate never opened"
                return super().plan(workload, **kwargs)

        return _Planner(self.cluster)


def _canonical(payload: str) -> str:
    document = json.loads(payload)
    document.pop("planning_report", None)
    return json.dumps(document, sort_keys=True)


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestFleetServing:
    def test_plan_matches_direct_planner(self, cluster, tiny_tasks):
        direct = ExecutionPlanner(cluster).plan(tiny_tasks)
        with PlanServiceFleet(lambda: ExecutionPlanner(cluster)) as fleet:
            served = fleet.plan(tiny_tasks, timeout=30.0)
        assert served.fingerprint == direct.fingerprint
        assert served.schedule.makespan == pytest.approx(direct.schedule.makespan)

    def test_coalescing_across_entry_points(self, cluster, tiny_tasks):
        """The same fingerprint submitted in two task orders coalesces onto
        one in-flight future, and a later request() is a hit on its solve:
        one solve fleet-wide."""
        gate = threading.Event()
        factory = CountingFactory(cluster, gate)
        fleet = PlanServiceFleet(factory, num_workers=2)
        try:
            direct = fleet.submit(tiny_tasks)
            reordered = fleet.submit(list(reversed(tiny_tasks)))
            assert reordered is direct  # single-flight hands out the leader
            assert fleet.pending_requests() == 1
            gate.set()
            wait([direct], timeout=30.0)
            response = fleet.request(tiny_tasks, timeout=30.0)
            assert response.plan is direct.result()
        finally:
            gate.set()
            fleet.close()
        assert factory.calls == 1

    def test_concurrent_jobs_coalesce_onto_one_solve(self, cluster, tiny_tasks):
        """Jobs submitting the same workload from their own threads, in either
        task order, while it is being solved all get the one in-flight
        future."""
        gate = threading.Event()
        factory = CountingFactory(cluster, gate)
        fleet = PlanServiceFleet(factory, num_workers=2)
        futures = []
        lock = threading.Lock()

        def job(index):
            workload = tiny_tasks if index % 2 else list(reversed(tiny_tasks))
            future = fleet.submit(workload)
            with lock:
                futures.append(future)

        threads = [threading.Thread(target=job, args=(i,)) for i in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert len(futures) == 8
            assert all(future is futures[0] for future in futures[1:])
            gate.set()
            plan = futures[0].result(timeout=30.0)
        finally:
            gate.set()
            fleet.close()
        assert factory.calls == 1
        assert plan.fingerprint == fleet.fingerprint(tiny_tasks)
        assert fleet.stats.count(OUTCOME_MISS) == 1
        assert fleet.stats.count(OUTCOME_COALESCED) == 7

    def test_distinct_workloads_resolve_to_their_own_plans(
        self, cluster, tiny_tasks
    ):
        """Workloads in flight together each resolve to the plan of their
        own fingerprint."""
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks[1:]]
        gate = threading.Event()
        factory = CountingFactory(cluster, gate)
        fleet = PlanServiceFleet(factory, num_workers=2)
        try:
            futures = [fleet.submit(workload) for workload in workloads]
            assert len({id(future) for future in futures}) == len(workloads)
            gate.set()
            wait(futures, timeout=30.0)
            expected = [fleet.fingerprint(workload) for workload in workloads]
            assert [f.result().fingerprint for f in futures] == expected
        finally:
            gate.set()
            fleet.close()
        assert factory.calls == len(workloads)

    def test_fleet_payloads_match_single_service(self, cluster, tiny_tasks):
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks[1:]]
        with PlanServiceFleet(lambda: ExecutionPlanner(cluster)) as fleet:
            fleet_payloads = {}
            for workload in workloads:
                fingerprint = fleet.plan(workload, timeout=30.0).fingerprint
                fleet_payloads[fingerprint] = fleet.cache.get_payload(fingerprint)
        with PlanService(
            lambda: ExecutionPlanner(cluster), cache=PlanCache()
        ) as service:
            for workload in workloads:
                service.plan(workload, timeout=30.0)
            for fingerprint, payload in fleet_payloads.items():
                reference = service.cache.get_payload(fingerprint)
                assert reference is not None
                assert _canonical(payload) == _canonical(reference)

    def test_repeat_requests_serve_identical_payload_bytes(
        self, cluster, tiny_tasks
    ):
        cache = PlanCache(capacity=16)
        with PlanServiceFleet(lambda: ExecutionPlanner(cluster), cache=cache) as fleet:
            fingerprint = fleet.plan(tiny_tasks, timeout=30.0).fingerprint
            first = cache.get_payload(fingerprint)
            fleet.plan(list(reversed(tiny_tasks)), timeout=30.0)
            second = cache.get_payload(fingerprint)
        assert first.encode() == second.encode()
        assert cache.stats.puts == 1

    def test_the_fleet_is_one_service_with_its_sinks(self, cluster):
        factory = CountingFactory(cluster)
        journal, slo = TelemetryJournal(), SloTracker()
        with PlanServiceFleet(factory, capacity=5, journal=journal, slo=slo) as fleet:
            assert fleet.shards == (fleet.service,)
            assert type(fleet.cache) is PlanCache
            assert fleet.cache.capacity == 5
            service = fleet.service
            assert fleet.cache is service.cache and fleet.stats is service.stats
            assert fleet.journal is service.journal is journal
            assert fleet.slo is service.slo is slo
            assert service.num_workers == 2  # PlanService's default
            # The service's prototype is the only planner built up front;
            # each worker builds its own on its first solve.
            assert factory.builds == 1

    def test_default_cache_is_one_plan_cache_of_the_fleet_capacity(self, cluster):
        with PlanServiceFleet(lambda: ExecutionPlanner(cluster)) as fleet:
            assert type(fleet.cache) is PlanCache
            assert fleet.cache.capacity == 256
            assert fleet.service.cache is fleet.cache

    def test_a_given_cache_is_the_one_the_fleet_serves(self, cluster, tiny_tasks):
        """A caller's cache wins over ``capacity``, and a plan already in it
        is a hit: no planner solves."""
        plan = ExecutionPlanner(cluster).plan(tiny_tasks)
        cache = PlanCache(capacity=3)
        cache.put(plan.fingerprint, plan)
        factory = CountingFactory(cluster)
        with PlanServiceFleet(factory, cache=cache, capacity=99) as fleet:
            assert fleet.cache is cache and cache.capacity == 3
            assert fleet.fingerprint(tiny_tasks) == plan.fingerprint
            response = fleet.request(list(reversed(tiny_tasks)), timeout=30.0)
        assert (response.outcome, response.tier) == (RESPONSE_SERVED, TIER_CACHE)
        assert response.plan is plan
        assert factory.calls == 0
        assert fleet.stats.count(OUTCOME_HIT) == 1

    def test_rejects_an_invalid_worker_count(self, cluster):
        with pytest.raises(ServiceError, match="num_workers"):
            PlanServiceFleet(lambda: ExecutionPlanner(cluster), num_workers=0)

    @pytest.mark.parametrize(
        "option",
        [{"num_shards": 4}, {"store_dir": "plans"}, {"stats": None}],
        ids=["num_shards", "store_dir", "stats"],
    )
    def test_rejects_an_option_the_service_does_not_take(self, cluster, option):
        """Sharding and partition options fail loudly instead of being
        silently ignored."""
        with pytest.raises(TypeError):
            PlanServiceFleet(lambda: ExecutionPlanner(cluster), **option)

    def test_a_fleet_builds_one_planner_per_worker_and_its_prototype(
        self, cluster, tiny_tasks
    ):
        """Two workers solving at once: three planners in all, and later
        solves build none."""
        gate = threading.Event()
        factory = CountingFactory(cluster, gate)
        fleet = PlanServiceFleet(factory, num_workers=2, max_batch_size=1)
        try:
            futures = [fleet.submit(tiny_tasks), fleet.submit(tiny_tasks[:1])]
            _wait_until(lambda: factory.builds == 3)
            gate.set()
            wait(futures, timeout=30.0)
            fleet.plan(tiny_tasks[1:], timeout=30.0)
            fleet.plan(tiny_tasks, timeout=30.0)
        finally:
            gate.set()
            fleet.close()
        assert factory.builds == 3
        assert factory.calls == 3

    def test_pending_requests_count_distinct_workloads_in_flight(
        self, cluster, tiny_tasks
    ):
        gate = threading.Event()
        fleet = PlanServiceFleet(CountingFactory(cluster, gate), num_workers=1)
        try:
            futures = [
                fleet.submit(workload)
                for workload in (tiny_tasks, tiny_tasks[:1], tiny_tasks[1:])
            ]
            fleet.submit(list(reversed(tiny_tasks)))  # coalesced: no new slot
            assert fleet.pending_requests() == 3
            gate.set()
            wait(futures, timeout=30.0)
            assert fleet.pending_requests() == 0
        finally:
            gate.set()
            fleet.close()

    def test_close_with_cancel_pending_fails_queued_requests(
        self, cluster, tiny_tasks
    ):
        """A solve under way finishes; a request still queued behind it
        resolves with ServiceError and is never solved."""
        gate = threading.Event()
        factory = CountingFactory(cluster, gate)
        fleet = PlanServiceFleet(factory, num_workers=1, max_batch_size=1)
        try:
            running = fleet.submit(tiny_tasks)
            _wait_until(lambda: factory.calls == 1)
            queued = fleet.submit(tiny_tasks[:1])
            fleet.close(wait=False, cancel_pending=True)
            gate.set()
            assert running.result(timeout=30.0).fingerprint == fleet.fingerprint(
                tiny_tasks
            )
            with pytest.raises(ServiceError, match="closed before planning"):
                queued.result(timeout=30.0)
        finally:
            gate.set()
            fleet.close()
            for worker in fleet.service._workers:
                worker.join(timeout=30.0)
        assert factory.calls == 1

    @pytest.mark.parametrize("entry_point", ["submit", "plan", "request"])
    def test_closed_fleet_rejects_every_entry_point(
        self, cluster, tiny_tasks, entry_point
    ):
        fleet = PlanServiceFleet(lambda: ExecutionPlanner(cluster))
        fleet.close()
        with pytest.raises(ServiceError, match="closed"):
            getattr(fleet, entry_point)(tiny_tasks)

    def test_resilience_reaches_the_one_breaker(self, cluster):
        policy = ResiliencePolicy(max_attempts=2, breaker_failure_threshold=1)
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_workers=1, resilience=policy
        ) as fleet:
            (service,) = fleet.shards
            assert service.resilience is policy
            service.breaker.record_failure()
            assert service.breaker.state == BREAKER_OPEN


class TestSameAsBareService:
    def test_fleet_journals_exactly_what_a_bare_service_journals(
        self, cluster, tiny_tasks
    ):
        """One serial stream of misses and hits, one tenant, one trace seed
        and one cache capacity: the fleet's journal, counts and payloads are
        the bare service's."""
        workloads = [
            tiny_tasks,
            tiny_tasks[:1],
            tiny_tasks,
            list(reversed(tiny_tasks)),
            tiny_tasks[1:],
            tiny_tasks[:1],
        ]

        def run(front_end_type):
            journal, slo = TelemetryJournal(), SloTracker()
            cache = PlanCache(capacity=8)
            with front_end_type(
                lambda: ExecutionPlanner(cluster),
                cache=cache,
                num_workers=1,
                journal=journal,
                slo=slo,
                trace_seed=11,
            ) as front_end:
                responses = [
                    front_end.request(workload, timeout=30.0, tenant="t")
                    for workload in workloads
                ]
            stats = front_end.stats.as_dict()
            counts = {
                key: stats[key]
                for key in ("requests", "hits", "misses", "coalesced", "errors")
            }
            report = slo.report()
            payloads = {
                response.fingerprint: _canonical(
                    cache.get_payload(response.fingerprint)
                )
                for response in responses
            }
            return (
                journal.dumps(),
                counts,
                (report.count, report.availability, len(slo.tenants())),
                [(r.trace_id, r.outcome, r.tier) for r in responses],
                payloads,
            )

        fleet = run(PlanServiceFleet)
        bare = run(PlanService)
        assert fleet[0] == bare[0]
        assert fleet[1] == bare[1] == {
            "requests": 6,
            "hits": 3,
            "misses": 3,
            "coalesced": 0,
            "errors": 0,
        }
        assert fleet[2] == bare[2] == (6, 1.0, 1)
        assert fleet[3] == bare[3]
        assert fleet[4] == bare[4]
        # A fleet mints a bare service's trace IDs: <fp8>-<seed>-<ordinal>.
        assert fleet[3][0][0].endswith("-11-000000")


class TestTraceDeterminism:
    def test_same_seed_runs_produce_identical_journals(self, cluster, tiny_tasks):
        """Two same-seed fleets serving the same serial stream journal
        byte-identically (no wall-clock in the journal)."""
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks, tiny_tasks[1:]]

        def run() -> str:
            journal = TelemetryJournal()
            with PlanServiceFleet(
                lambda: ExecutionPlanner(cluster),
                num_workers=1,
                journal=journal,
                trace_seed=11,
            ) as fleet:
                for workload in workloads:
                    fleet.plan(workload, timeout=30.0)
            return journal.dumps()

        first = run()
        assert first and first == run()

    def test_trace_ids_are_fingerprint_seed_and_ordinal(self, cluster, tiny_tasks):
        """Every request, hit or miss, takes the next ordinal of the fleet's
        one ID stream: ``<fp8>-<seed>-<ordinal>``, with no shard field."""
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks, tiny_tasks[1:]]
        journal = TelemetryJournal()
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), journal=journal, trace_seed=7
        ) as fleet:
            responses = [fleet.request(w, timeout=30.0) for w in workloads]
        assert [r.trace_id for r in responses] == [
            f"{r.fingerprint[:8]}-7-{ordinal:06d}"
            for ordinal, r in enumerate(responses)
        ]
        journaled = {e["trace_id"] for e in journal.events() if e["trace_id"]}
        assert journaled == {r.trace_id for r in responses}
        assert all(re.fullmatch(r"[0-9a-f]{8}-7-\d{6}", t) for t in journaled)


class TestComposedPersistence:
    """Durability composes a :class:`PlanStore` with ``fleet.cache``."""

    WORKLOAD_SLICES = (slice(None), slice(None, 1), slice(1, None))

    def _serve(self, fleet, tiny_tasks):
        fingerprints = [
            fleet.plan(tiny_tasks[window], timeout=30.0).fingerprint
            for window in self.WORKLOAD_SLICES
        ]
        return fingerprints, [fleet.cache.get_payload(fp) for fp in fingerprints]

    def test_persist_and_warm_start_through_a_plan_store(
        self, cluster, tiny_tasks, tmp_path
    ):
        """A new fleet loaded from the snapshot serves the persisted bytes
        for every workload without a solve."""
        path = tmp_path / "plans.json"
        with PlanServiceFleet(lambda: ExecutionPlanner(cluster)) as fleet:
            fingerprints, payloads = self._serve(fleet, tiny_tasks)
            PlanStore(path).save(fleet.cache)
        factory = CountingFactory(cluster)
        with PlanServiceFleet(factory) as warmed:
            assert PlanStore(path).load_into(warmed.cache).loaded == 3
            assert [
                warmed.fingerprint(tiny_tasks[window])
                for window in self.WORKLOAD_SLICES
            ] == fingerprints
            assert [warmed.cache.get_payload(fp) for fp in fingerprints] == payloads
        assert factory.calls == 0

    def test_persist_keeps_the_fleet_cache_lru_order(
        self, cluster, tiny_tasks, tmp_path
    ):
        """Saving counts no hit and moves no entry, and a warm start
        restores the same recency order, so both fleets evict alike."""
        path = tmp_path / "plans.json"
        with PlanServiceFleet(lambda: ExecutionPlanner(cluster)) as fleet:
            fingerprints, _ = self._serve(fleet, tiny_tasks)
            fleet.plan(tiny_tasks, timeout=30.0)  # a hit: most recent again
            order = fleet.cache.fingerprints()
            hits = fleet.cache.stats.hits
            PlanStore(path).save(fleet.cache)
            assert fleet.cache.fingerprints() == order
            assert fleet.cache.stats.hits == hits
        assert order == fingerprints[1:] + fingerprints[:1]
        with PlanServiceFleet(lambda: ExecutionPlanner(cluster)) as warmed:
            PlanStore(path).load_into(warmed.cache)
            assert warmed.cache.fingerprints() == order

    def test_a_warm_fleet_solves_again_for_a_live_plan(
        self, cluster, tiny_tasks, tmp_path
    ):
        """A snapshot restores payloads, not live plans: ``request`` on a
        warm fleet solves afresh, and the new payload matches the persisted
        one canonically."""
        path = tmp_path / "plans.json"
        with PlanServiceFleet(lambda: ExecutionPlanner(cluster)) as fleet:
            (fingerprint, *_), (persisted, *_) = self._serve(fleet, tiny_tasks)
            PlanStore(path).save(fleet.cache)
        factory = CountingFactory(cluster)
        with PlanServiceFleet(factory) as warmed:
            PlanStore(path).load_into(warmed.cache)
            response = warmed.request(tiny_tasks, timeout=30.0)
            refreshed = warmed.cache.get_payload(fingerprint)
        assert (response.outcome, response.tier) == (RESPONSE_SERVED, TIER_FRESH)
        assert factory.calls == 1
        assert _canonical(refreshed) == _canonical(persisted)
