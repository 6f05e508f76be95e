"""Tests for the fingerprint-sharded plan-service fleet.

Covers the routing function (jump consistent hash and its minimal-movement
guarantee), cross-shard single-flight coalescing, reshard byte-identity,
partitioned persistence with parallel warm start, and same-seed telemetry
journal determinism.
"""

import threading
from concurrent.futures import wait

import pytest

from repro.cluster.topology import make_cluster
from repro.core.plan import ExecutionPlan
from repro.core.planner import ExecutionPlanner
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.plan import PERSIST_ERROR
from repro.obs import TelemetryJournal
from repro.service import (
    OUTCOME_COALESCED,
    OUTCOME_MISS,
    FleetError,
    PlanService,
    PlanServiceFleet,
    PlanCache,
    PlanStore,
    jump_consistent_hash,
    payload_checksum,
    shard_for_fingerprint,
)


@pytest.fixture
def cluster():
    return make_cluster(4, devices_per_node=4)


class CountingFactory:
    """Planner factory whose planners share one invocation counter."""

    def __init__(self, cluster, gate: threading.Event | None = None) -> None:
        self.cluster = cluster
        self.gate = gate
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self) -> ExecutionPlanner:
        factory = self

        class _Planner(ExecutionPlanner):
            def plan(self, workload, **kwargs) -> ExecutionPlan:
                with factory._lock:
                    factory.calls += 1
                if factory.gate is not None:
                    assert factory.gate.wait(timeout=10.0), "gate never opened"
                return super().plan(workload, **kwargs)

        return _Planner(self.cluster)


class TestJumpConsistentHash:
    def test_range_and_determinism(self):
        for key in (0, 1, 17, 2**31, 2**63 - 1, 2**64 - 1):
            for buckets in (1, 2, 4, 8, 100):
                bucket = jump_consistent_hash(key, buckets)
                assert 0 <= bucket < buckets
                assert bucket == jump_consistent_hash(key, buckets)

    def test_single_bucket_is_zero(self):
        assert all(jump_consistent_hash(k, 1) == 0 for k in range(50))

    def test_minimal_movement_on_growth(self):
        """Growing N -> N+1 only ever moves keys into the new bucket."""
        keys = [hash(("key", i)) & (2**64 - 1) for i in range(500)]
        for buckets in range(1, 9):
            moved = 0
            for key in keys:
                before = jump_consistent_hash(key, buckets)
                after = jump_consistent_hash(key, buckets + 1)
                if after != before:
                    assert after == buckets  # only into the new bucket
                    moved += 1
            # Expected movement is ~1/(N+1) of the keyspace.
            assert moved < len(keys) * 2.5 / (buckets + 1)

    def test_rejects_bad_bucket_count(self):
        with pytest.raises(FleetError):
            jump_consistent_hash(42, 0)

    def test_fingerprint_routing_spreads(self):
        import hashlib

        fingerprints = [
            hashlib.sha256(str(i).encode()).hexdigest() for i in range(256)
        ]
        census = [0] * 8
        for fingerprint in fingerprints:
            census[shard_for_fingerprint(fingerprint, 8)] += 1
        assert all(count > 0 for count in census)

    def test_non_hex_fingerprints_still_route(self):
        assert 0 <= shard_for_fingerprint("not-hex-at-all!", 4) < 4
        assert shard_for_fingerprint("", 4) == 0


class TestFleetServing:
    def test_plan_matches_direct_planner(self, cluster, tiny_tasks):
        direct = ExecutionPlanner(cluster).plan(tiny_tasks)
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=3
        ) as fleet:
            served = fleet.plan(tiny_tasks, timeout=30.0)
        assert served.fingerprint == direct.fingerprint
        assert served.schedule.makespan == pytest.approx(direct.schedule.makespan)

    def test_identical_fingerprints_route_to_one_shard(self, cluster, tiny_tasks):
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=4
        ) as fleet:
            fleet.plan(tiny_tasks, timeout=30.0)
            fleet.plan(list(reversed(tiny_tasks)), timeout=30.0)
            census = fleet.shard_census()
        assert sum(census) == 2
        assert max(census) == 2  # canonical fingerprint -> same shard twice

    def test_coalescing_across_entry_points(self, cluster, tiny_tasks):
        """The same fingerprint submitted in two task orders coalesces onto
        one in-flight future, and a later request() is a hit on its solve:
        one solve fleet-wide."""
        gate = threading.Event()
        factory = CountingFactory(cluster, gate)
        fleet = PlanServiceFleet(factory, num_shards=4, num_workers=2)
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
        fleet = PlanServiceFleet(factory, num_shards=4, num_workers=2)
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
        """Workloads in flight together on different shards each resolve to
        the plan of their own fingerprint."""
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks[1:]]
        gate = threading.Event()
        factory = CountingFactory(cluster, gate)
        fleet = PlanServiceFleet(factory, num_shards=4, num_workers=2)
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
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=4
        ) as fleet:
            fleet_payloads = {
                fleet.fingerprint(w): fleet.serialized_plan(w, timeout=30.0)
                for w in workloads
            }
        with PlanService(
            lambda: ExecutionPlanner(cluster), cache=PlanCache()
        ) as service:
            for workload in workloads:
                service.plan(workload, timeout=30.0)
            from repro.experiments.harness import _canonical_plan_payload
            import json

            def canon(text: str) -> str:
                return json.dumps(
                    {
                        k: v
                        for k, v in json.loads(text).items()
                        if k != "planning_report"
                    },
                    sort_keys=True,
                )

            for fingerprint, payload in fleet_payloads.items():
                reference = service.cache.get_payload(fingerprint)
                assert reference is not None
                assert canon(payload) == canon(reference)

    def test_shared_cache_serves_all_shards(self, cluster, tiny_tasks):
        cache = PlanCache(capacity=16)
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=2, cache=cache
        ) as fleet:
            first = fleet.serialized_plan(tiny_tasks, timeout=30.0)
            second = fleet.serialized_plan(tiny_tasks, timeout=30.0)
        assert first.encode() == second.encode()
        assert cache.stats.puts >= 1

    def test_default_cache_is_one_plan_cache_of_the_fleet_capacity(self, cluster):
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=3, capacity=5
        ) as fleet:
            assert type(fleet.cache) is PlanCache
            assert fleet.cache.capacity == 5
            assert all(shard.cache is fleet.cache for shard in fleet.shards)
            assert fleet.stores == [] and fleet.persist() == 0  # no store_dir

    def test_closed_fleet_rejects_requests(self, cluster, tiny_tasks):
        fleet = PlanServiceFleet(lambda: ExecutionPlanner(cluster), num_shards=2)
        fleet.close()
        with pytest.raises(FleetError):
            fleet.submit(tiny_tasks)

    @pytest.mark.parametrize("entry_point", ["plan", "request"])
    def test_closed_fleet_rejects_every_entry_point(
        self, cluster, tiny_tasks, entry_point
    ):
        fleet = PlanServiceFleet(lambda: ExecutionPlanner(cluster), num_shards=2)
        fleet.close()
        with pytest.raises(FleetError):
            getattr(fleet, entry_point)(tiny_tasks, timeout=30.0)
        assert fleet.shard_census() == [0, 0]

    def test_invalid_shard_count_rejected(self, cluster):
        with pytest.raises(FleetError):
            PlanServiceFleet(lambda: ExecutionPlanner(cluster), num_shards=0)


class TestTraceDeterminism:
    def test_per_shard_trace_namespaces(self, cluster, tiny_tasks):
        journal = TelemetryJournal()
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=4, journal=journal
        ) as fleet:
            fleet.plan(tiny_tasks, timeout=30.0)
            shard = fleet.shard_of(fleet.fingerprint(tiny_tasks))
        trace_ids = {
            event["trace_id"]
            for event in journal.events()
            if "trace_id" in event
        }
        assert trace_ids
        for trace_id in trace_ids:
            assert f"-s{shard}-" in trace_id

    def test_same_seed_runs_produce_identical_journals(self, cluster, tiny_tasks):
        """Two same-seed fleets serving the same serial stream journal
        byte-identically (trace IDs namespaced by shard ordinal, no
        wall-clock in the journal)."""
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks, tiny_tasks[1:]]

        def run() -> str:
            journal = TelemetryJournal()
            with PlanServiceFleet(
                lambda: ExecutionPlanner(cluster),
                num_shards=4,
                num_workers=1,
                journal=journal,
                trace_seed=11,
            ) as fleet:
                for workload in workloads:
                    fleet.plan(workload, timeout=30.0)
            return journal.dumps()

        assert run() == run()


class TestPartitionedPersistence:
    def _serve(self, fleet, workloads):
        return {
            fleet.fingerprint(w): fleet.serialized_plan(w, timeout=30.0)
            for w in workloads
        }

    def test_persist_and_parallel_warm_start(self, cluster, tiny_tasks, tmp_path):
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks[1:]]
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=4, store_dir=tmp_path
        ) as fleet:
            payloads = self._serve(fleet, workloads)
        assert sorted(p.name for p in tmp_path.glob("shard-*.json")) == [
            f"shard-{i:02d}.json" for i in range(4)
        ]

        factory = CountingFactory(cluster)
        with PlanServiceFleet(
            factory, num_shards=4, store_dir=tmp_path
        ) as warmed:
            assert warmed.warm_started == len(payloads)
            reserved = self._serve(warmed, workloads)
        assert factory.calls == 0  # every request served from the warm cache
        assert reserved == payloads

    def test_persist_keeps_the_shared_cache_lru_order(self, cluster, tiny_tasks, tmp_path):
        """Saving shard by shard neither counts hits nor regroups the LRU
        order by owning shard, which would change the next eviction."""
        plan = ExecutionPlanner(cluster).plan(tiny_tasks)
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=4, store_dir=tmp_path
        ) as fleet:
            fingerprints = [payload_checksum(str(i)) for i in range(8)]
            for fingerprint in fingerprints:
                fleet.cache.put(fingerprint, plan)
            assert len({fleet.shard_of(fp) for fp in fingerprints}) > 1
            assert fleet.persist() == 4
            assert fleet.cache.fingerprints() == fingerprints
            assert fleet.cache.stats.hits == 0

    def test_reshard_returns_byte_identical_payloads(
        self, cluster, tiny_tasks, tmp_path
    ):
        """A shard-count change re-routes every fingerprint but serves the
        exact bytes the old fleet persisted."""
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks[1:]]
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=4, store_dir=tmp_path
        ) as fleet:
            payloads = self._serve(fleet, workloads)

        for new_count in (2, 8):
            factory = CountingFactory(cluster)
            with PlanServiceFleet(
                factory, num_shards=new_count, store_dir=tmp_path
            ) as resharded:
                assert self._serve(resharded, workloads) == payloads
            assert factory.calls == 0

        # After the 8-shard fleet persisted, exactly its partitions remain.
        assert sorted(p.name for p in tmp_path.glob("shard-*.json")) == [
            f"shard-{i:02d}.json" for i in range(8)
        ]

    def test_persist_repartitions_for_current_owners(
        self, cluster, tiny_tasks, tmp_path
    ):
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=4, store_dir=tmp_path
        ) as fleet:
            fleet.plan(tiny_tasks, timeout=30.0)
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=2, store_dir=tmp_path
        ) as shrunk:
            assert shrunk.warm_started == 1
        # The shrunk fleet rewrote the directory down to its own partitions.
        names = sorted(p.name for p in tmp_path.glob("shard-*.json"))
        assert names == ["shard-00.json", "shard-01.json"]

    def test_persist_survives_one_failing_partition(
        self, cluster, tiny_tasks, tmp_path
    ):
        """An I/O error on one partition is absorbed: the other partitions
        are still written and the failed one keeps its previous snapshot."""
        fleet = PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=4, store_dir=tmp_path
        )
        try:
            fingerprint = fleet.fingerprint(tiny_tasks)
            self._serve(fleet, [tiny_tasks, tiny_tasks[:1], tiny_tasks[1:]])
            assert fleet.persist() == 4
            failing = fleet.shard_of(fingerprint)
            path = fleet.stores[failing].path
            before = path.read_text(encoding="utf-8")
            assert fingerprint in before
            fleet.stores[failing] = PlanStore(
                path,
                injector=FaultInjector(
                    FaultPlan([FaultEvent(index=0, kind=PERSIST_ERROR)])
                ),
            )
            # A successful write would drop the entry; the others are
            # removed from disk so their rewrite is observable.
            fleet.cache.invalidate(fingerprint)
            others = [s.path for s in fleet.stores if s.path != path]
            for other in others:
                other.unlink()
            assert fleet.persist() == fleet.num_shards - 1
            assert path.read_text(encoding="utf-8") == before
            assert all(other.is_file() for other in others)
        finally:
            fleet.close()

    def test_failed_partition_is_rewritten_on_the_next_persist(
        self, cluster, tiny_tasks, tmp_path
    ):
        """A transient I/O error costs one persist, not the partition: the
        next persist() writes every partition again."""
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), num_shards=2, store_dir=tmp_path
        ) as fleet:
            fingerprint = fleet.fingerprint(tiny_tasks)
            fleet.plan(tiny_tasks, timeout=30.0)
            failing = fleet.shard_of(fingerprint)
            path = fleet.stores[failing].path
            fleet.stores[failing] = PlanStore(
                path,
                injector=FaultInjector(
                    FaultPlan([FaultEvent(index=0, kind=PERSIST_ERROR)])
                ),
            )
            assert fleet.persist() == fleet.num_shards - 1
            assert not path.exists()
            assert fleet.persist() == fleet.num_shards
            assert fingerprint in path.read_text(encoding="utf-8")
