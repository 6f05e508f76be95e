"""Service-level telemetry: trace IDs, journaled lifecycles, SLO samples."""

import threading

import pytest

from repro.cluster.topology import make_cluster
from repro.core.plan import ExecutionPlan
from repro.core.planner import ExecutionPlanner
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.plan import PLANNER_ERROR
from repro.obs import (
    SloTracker,
    TelemetryJournal,
    attribution_report,
    reconstruct_requests,
)
from repro.service import PlanService, PlanServiceFleet, ResiliencePolicy


class GatedPlanner(ExecutionPlanner):
    """Planner whose ``plan`` blocks on an event (mirrors the server tests)."""

    def __init__(self, cluster, gate: threading.Event) -> None:
        super().__init__(cluster)
        self.gate = gate

    def plan(self, workload, **kwargs) -> ExecutionPlan:
        assert self.gate.wait(timeout=10.0), "test gate never opened"
        return super().plan(workload, **kwargs)


@pytest.fixture
def cluster():
    return make_cluster(4, devices_per_node=4)


def kinds_for(journal, trace_id):
    return [e["kind"] for e in journal.events() if e["trace_id"] == trace_id]


class TestLifecycles:
    def test_miss_then_hit_journal_full_lifecycles(self, cluster, tiny_tasks):
        journal = TelemetryJournal()
        with PlanService(
            ExecutionPlanner(cluster), num_workers=1, journal=journal
        ) as service:
            miss = service.request(tiny_tasks, timeout=30.0, tenant="t0")
            hit = service.request(tiny_tasks, timeout=30.0, tenant="t1")
        assert miss.trace_id is not None
        assert hit.trace_id != miss.trace_id
        assert kinds_for(journal, miss.trace_id) == [
            "request.submitted",
            "request.enqueued",
            "solve.attempt",
            "request.resolved",
        ]
        assert kinds_for(journal, hit.trace_id) == [
            "request.submitted",
            "request.cache_hit",
            "request.resolved",
        ]
        lifecycles = reconstruct_requests(journal.events())
        assert all(life.complete for life in lifecycles.values())
        assert lifecycles[hit.trace_id].tier == "cache"
        assert lifecycles[hit.trace_id].tenant == "t1"

    def test_coalesced_followers_record_the_leader_id(self, cluster, tiny_tasks):
        journal = TelemetryJournal()
        gate = threading.Event()
        service = PlanService(
            GatedPlanner(cluster, gate), num_workers=1, journal=journal
        )
        try:
            leader_future = service.submit(tiny_tasks)
            follower_future = service.submit(tiny_tasks)
            assert follower_future is leader_future
            gate.set()
            leader_future.result(timeout=30.0)
        finally:
            gate.set()
            service.close()
        leader_id = leader_future._repro_trace_id
        coalesced = [
            e for e in journal.events() if e["kind"] == "request.coalesced"
        ]
        assert len(coalesced) == 1
        assert coalesced[0]["leader"] == leader_id
        assert coalesced[0]["trace_id"] != leader_id
        follower = reconstruct_requests(journal.events())[
            coalesced[0]["trace_id"]
        ]
        assert follower.leader == leader_id

    def test_shed_requests_resolve_in_the_journal(self, cluster, tiny_tasks):
        journal = TelemetryJournal()
        slo = SloTracker()
        gate = threading.Event()
        service = PlanService(
            GatedPlanner(cluster, gate),
            num_workers=1,
            resilience=ResiliencePolicy(max_queue_depth=1),
            journal=journal,
            slo=slo,
        )
        try:
            blocker = service.submit(tiny_tasks)
            shed = service.request(tiny_tasks[:1], timeout=30.0, tenant="t9")
            gate.set()
            blocker.result(timeout=30.0)
        finally:
            gate.set()
            service.close()
        assert shed.outcome == "shed"
        assert kinds_for(journal, shed.trace_id) == [
            "request.submitted",
            "request.shed",
            "request.resolved",
        ]
        assert reconstruct_requests(journal.events())[shed.trace_id].complete
        assert slo.tenant_reports()["t9"].shed_rate == 1.0


class TestFaultAttribution:
    def test_injected_fault_and_retry_attach_to_the_trace(
        self, cluster, tiny_tasks
    ):
        journal = TelemetryJournal()
        plan = FaultPlan(
            events=[FaultEvent(index=0, kind=PLANNER_ERROR, attempts=1)]
        )
        injector = FaultInjector(plan, sleeper=lambda _: None)
        with PlanService(
            ExecutionPlanner(cluster),
            num_workers=1,
            fault_injector=injector,
            journal=journal,
        ) as service:
            # The service adopts journal-less collaborators: the injector's
            # fault events land in the same stream as the lifecycle.
            assert injector.journal is journal
            response = service.request(tiny_tasks, timeout=30.0)
        assert response.outcome == "served"
        lifecycle = reconstruct_requests(journal.events())[response.trace_id]
        assert lifecycle.faults == [PLANNER_ERROR]
        assert lifecycle.retries == 1
        assert lifecycle.attempts == 2
        report = attribution_report(journal.events())
        assert report["complete"] == report["requests"] == 1
        assert report["faults"] == {PLANNER_ERROR: 1}
        assert report["orphan_events"] == 0

    def test_same_seed_serial_journals_are_byte_identical(
        self, cluster, tiny_tasks
    ):
        def run():
            journal = TelemetryJournal()
            plan = FaultPlan(
                events=[FaultEvent(index=1, kind=PLANNER_ERROR, attempts=1)]
            )
            with PlanService(
                ExecutionPlanner(cluster),
                num_workers=1,
                fault_injector=FaultInjector(plan, sleeper=lambda _: None),
                journal=journal,
            ) as service:
                for index, workload in enumerate(
                    (tiny_tasks, tiny_tasks[:1], tiny_tasks)
                ):
                    service.request(
                        workload, timeout=30.0, tenant=f"tenant-{index % 2}"
                    )
            return journal.dumps()

        assert run() == run()


class TestSloRecording:
    def test_one_sample_per_request_with_tenant_scopes(self, cluster, tiny_tasks):
        slo = SloTracker()
        with PlanService(
            ExecutionPlanner(cluster), num_workers=1, slo=slo
        ) as service:
            service.request(tiny_tasks, timeout=30.0, tenant="a")
            service.request(tiny_tasks, timeout=30.0, tenant="a")
            service.request(tiny_tasks[:1], timeout=30.0, tenant="b")
        report = slo.report()
        assert report.count == 3
        assert report.availability == 1.0
        assert slo.tenant_reports()["a"].count == 2
        assert slo.tenant_reports()["b"].count == 1
        # Topology scope carries the cluster signature prefix.
        assert len(slo.topology_reports()) == 1


class TestFleetSharing:
    def test_fleet_shards_share_journal_and_slo_with_per_shard_ids(
        self, tiny_tasks
    ):
        journal = TelemetryJournal()
        slo = SloTracker()
        cluster = make_cluster(4, devices_per_node=4)
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks[1:]]
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster),
            num_shards=4,
            num_workers=1,
            journal=journal,
            slo=slo,
        ) as fleet:
            assert all(
                shard.journal is journal and shard.slo is slo
                for shard in fleet.shards
            )
            responses = [
                fleet.request(workload, timeout=30.0, tenant="t")
                for workload in workloads
            ]
            labels = {
                fleet.shards[fleet.shard_of(r.fingerprint)]._topology_label
                for r in responses
            }
        # Per-shard ID namespaces keep IDs unique across the fleet.
        trace_ids = {response.trace_id for response in responses}
        assert len(trace_ids) == len(workloads)
        lifecycles = reconstruct_requests(journal.events())
        assert set(lifecycles) == trace_ids
        assert {life.topology for life in lifecycles.values()} == labels
        assert slo.report().count == len(workloads)
        assert len(slo.topology_reports()) == len(labels)
