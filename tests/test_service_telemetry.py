"""Service-level telemetry: trace IDs, journaled lifecycles, SLO samples."""

import hashlib
import threading
import time

import pytest

from repro.cluster.topology import make_cluster
from repro.core.plan import ExecutionPlan
from repro.core.planner import ExecutionPlanner
from repro.experiments.harness import run_resilience_benchmark
from repro.experiments.workloads import clip_workload
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


class FailingPlanner(GatedPlanner):
    """Gated planner whose solve raises once the gate opens."""

    def plan(self, workload, **kwargs) -> ExecutionPlan:
        assert self.gate.wait(timeout=10.0), "test gate never opened"
        raise RuntimeError("planner down")


@pytest.fixture
def cluster():
    return make_cluster(4, devices_per_node=4)


def kinds_for(journal, trace_id):
    return [e["kind"] for e in journal.events() if e["trace_id"] == trace_id]


def wait_for_event(journal, kind):
    """The first journaled ``kind`` event, polling until it appears."""
    deadline = time.monotonic() + 10.0
    while True:
        for event in journal.events():
            if event["kind"] == kind:
                return event
        assert time.monotonic() < deadline, f"no {kind} event"
        time.sleep(0.001)


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

    def test_follower_of_a_failed_solve_resolves_as_an_error(
        self, cluster, tiny_tasks
    ):
        journal = TelemetryJournal()
        slo = SloTracker()
        gate = threading.Event()
        service = PlanService(
            FailingPlanner(cluster, gate), num_workers=1, journal=journal, slo=slo
        )
        try:
            leader_future = service.submit(tiny_tasks)
            follower_future = service.submit(tiny_tasks)
            assert follower_future is leader_future
            gate.set()
            with pytest.raises(RuntimeError):
                leader_future.result(timeout=30.0)
        finally:
            gate.set()
            service.close()
        follower_id = wait_for_event(journal, "request.coalesced")["trace_id"]
        assert kinds_for(journal, follower_id) == [
            "request.submitted",
            "request.coalesced",
            "request.resolved",
        ]
        assert reconstruct_requests(journal.events())[follower_id].outcome == "error"
        report = attribution_report(journal.events())
        assert report["complete"] == report["requests"] == 2
        assert slo.report().count == 2
        assert slo.report().error_rate == 1.0
        assert service.stats.errors == 2

    def test_coalesced_follower_response_keeps_its_own_identity(
        self, cluster, tiny_tasks
    ):
        journal = TelemetryJournal()
        gate = threading.Event()
        responses = {}
        service = PlanService(
            GatedPlanner(cluster, gate), num_workers=1, journal=journal
        )

        def request(tenant):
            responses[tenant] = service.request(tiny_tasks, timeout=30.0, tenant=tenant)

        threads = [
            threading.Thread(target=request, args=(tenant,))
            for tenant in ("tenant-a", "tenant-b")
        ]
        try:
            threads[0].start()
            wait_for_event(journal, "request.enqueued")
            threads[1].start()
            coalesced = wait_for_event(journal, "request.coalesced")
            gate.set()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            gate.set()
            service.close()
        leader, follower = responses["tenant-a"], responses["tenant-b"]
        assert coalesced["leader"] == leader.trace_id
        assert follower.trace_id == coalesced["trace_id"] != leader.trace_id
        assert follower.tenant == "tenant-b"
        assert follower.plan is leader.plan
        assert (follower.outcome, follower.tier, follower.attempts) == (
            leader.outcome,
            leader.tier,
            leader.attempts,
        )
        lifecycle = reconstruct_requests(journal.events())[follower.trace_id]
        assert lifecycle.tenant == "tenant-b"

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
    def _serve(self, cluster, tiny_tasks, journal, slo):
        workloads = [tiny_tasks, tiny_tasks[:1], tiny_tasks[1:], tiny_tasks]
        tenants = ["a", "b", "a", "b"]
        with PlanServiceFleet(
            lambda: ExecutionPlanner(cluster), journal=journal, slo=slo
        ) as fleet:
            return [
                fleet.request(workload, timeout=30.0, tenant=tenant)
                for workload, tenant in zip(workloads, tenants)
            ]

    def test_a_fleet_journals_under_its_service_topology_label(
        self, cluster, tiny_tasks
    ):
        """One lifecycle per request, each under its own trace ID and the
        service's default ``topology`` label: the cluster signature prefix."""
        journal, slo = TelemetryJournal(), SloTracker()
        responses = self._serve(cluster, tiny_tasks, journal, slo)
        trace_ids = {response.trace_id for response in responses}
        assert len(trace_ids) == len(responses)
        lifecycles = reconstruct_requests(journal.events())
        assert set(lifecycles) == trace_ids
        assert all(life.complete for life in lifecycles.values())
        label = cluster.signature()[:12]
        assert {life.topology for life in lifecycles.values()} == {label}
        assert set(slo.topology_reports()) == {label}

    def test_a_fleet_tracks_every_tenant_in_one_slo_window(
        self, cluster, tiny_tasks
    ):
        journal, slo = TelemetryJournal(), SloTracker()
        responses = self._serve(cluster, tiny_tasks, journal, slo)
        assert [r.tenant for r in responses] == ["a", "b", "a", "b"]
        assert slo.report().count == len(responses)
        assert {
            tenant: report.count for tenant, report in slo.tenant_reports().items()
        } == {"a": 2, "b": 2}
        lifecycles = reconstruct_requests(journal.events())
        assert sorted(life.tenant for life in lifecycles.values()) == ["a", "a", "b", "b"]


# SHA-256 of ``TelemetryJournal.dumps()``, the stats outcome counts and the
# SLO sample count of the two chaos campaigns ``bench_service_resilience``
# runs (seed 3: worker crashes and planner errors; seed 6: cache corruption
# and slow solves), recorded before the service's resolution sites were
# folded into one method.  Any change to the events a request emits, their
# fields or their order changes a digest.
_PINNED_COUNTS = ("requests", "hits", "misses", "coalesced", "degraded", "shed", "errors")
_PINNED_CAMPAIGNS = {
    3: (
        "eb433ed20d2e29553a6c9c107c55cac337f5b85d34aaad90ed47debd608ff327",
        (30, 24, 5, 0, 1, 0, 0),
        30,
    ),
    6: (
        "7216f41c012578719c8ac145dd1c697895e0f09865d0f8fa33bcf3b14f5de10e",
        (30, 23, 7, 0, 0, 0, 0),
        30,
    ),
}


class TestPinnedJournals:
    @pytest.mark.parametrize("seed", sorted(_PINNED_CAMPAIGNS))
    def test_chaos_campaign_journal_is_pinned(self, seed):
        digest, counts, slo_count = _PINNED_CAMPAIGNS[seed]
        journal = TelemetryJournal()
        slo = SloTracker()
        result = run_resilience_benchmark(
            clip_workload(6, 16),
            num_requests=30,
            num_unique=12,
            profile="chaos",
            seed=seed,
            journal=journal,
            slo=slo,
            num_tenants=3,
        )
        stats = result.stats.as_dict()
        assert tuple(stats[key] for key in _PINNED_COUNTS) == counts
        assert slo.report().count == slo_count
        assert hashlib.sha256(journal.dumps().encode()).hexdigest() == digest
