"""Experiment harness: run several systems on one workload and compare them.

The paper reports every end-to-end number as a speedup over DeepSpeed (Fig. 8,
Tab. 2); :class:`ComparisonResult` reproduces that convention while keeping the
raw iteration results around for the breakdown / utilization / memory figures.
"""

from __future__ import annotations

import json
from concurrent.futures import wait
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Sequence

from repro.baselines import SYSTEM_CLASSES, TrainingSystem, make_system
from repro.core.planner import ExecutionPlanner
from repro.core.serialization import plan_to_dict
from repro.experiments.workloads import WorkloadSpec, planning_request_stream
from repro.faults import FAULT_PROFILES, FaultInjector, FaultPlan, FaultProfile
from repro.obs import get_tracer
from repro.runtime.results import IterationResult
from repro.service import (
    PlanCache,
    PlanResponse,
    PlanService,
    PlanStore,
    ResiliencePolicy,
    ServiceStats,
    fingerprint_workload,
    hash_document,
)

#: Systems of the main end-to-end comparison, in the plotting order of Fig. 8.
DEFAULT_SYSTEMS = (
    "spindle",
    "spindle-optimus",
    "distmm-mt",
    "megatron-lm",
    "deepspeed",
)

#: Reference system of all speedup ratios in the paper.
REFERENCE_SYSTEM = "deepspeed"


@dataclass
class ComparisonResult:
    """Results of all systems on one workload, plus speedups vs the reference."""

    workload: WorkloadSpec
    results: dict[str, IterationResult] = field(default_factory=dict)
    reference: str = REFERENCE_SYSTEM

    def iteration_time(self, system: str) -> float:
        return self.results[system].iteration_time

    def speedup(self, system: str) -> float:
        """Speedup of ``system`` over the reference (larger than 1 is faster)."""
        return self.iteration_time(self.reference) / self.iteration_time(system)

    def speedups(self) -> dict[str, float]:
        return {name: self.speedup(name) for name in self.results}

    @property
    def best_system(self) -> str:
        return min(self.results, key=lambda name: self.iteration_time(name))

    def as_rows(self) -> list[tuple[str, float, float]]:
        """``(system, iteration_time_ms, speedup)`` rows sorted by time."""
        rows = [
            (name, result.iteration_time * 1e3, self.speedup(name))
            for name, result in self.results.items()
        ]
        rows.sort(key=lambda row: row[1])
        return rows


def run_comparison(
    workload: WorkloadSpec,
    systems: Sequence[str] = DEFAULT_SYSTEMS,
    system_kwargs: dict[str, dict] | None = None,
    tasks=None,
    cluster=None,
) -> ComparisonResult:
    """Run every requested system on the workload and collect the results.

    ``tasks``/``cluster`` accept prebuilt workload pieces (e.g. from the
    benchmark suite's session-wide :class:`~repro.bench.runner.WorkloadCache`)
    so repeated workloads are constructed once instead of per call.
    """
    system_kwargs = system_kwargs or {}
    cluster = cluster if cluster is not None else workload.cluster()
    tasks = tasks if tasks is not None else workload.tasks()
    comparison = ComparisonResult(workload=workload)
    for name in systems:
        if name not in SYSTEM_CLASSES:
            raise KeyError(f"Unknown system {name!r}")
        system = make_system(name, cluster, **system_kwargs.get(name, {}))
        comparison.results[name] = system.run_iteration(tasks)
    if comparison.reference not in comparison.results:
        comparison.reference = next(iter(comparison.results))
    return comparison


def run_single_system(
    workload: WorkloadSpec, system: str, tasks=None, cluster=None, **kwargs
) -> tuple[TrainingSystem, IterationResult]:
    """Run one system on one workload; returns the system (with its last plan).

    ``tasks``/``cluster`` accept prebuilt workload pieces, as in
    :func:`run_comparison`.
    """
    cluster = cluster if cluster is not None else workload.cluster()
    tasks = tasks if tasks is not None else workload.tasks()
    instance = make_system(system, cluster, **kwargs)
    result = instance.run_iteration(tasks)
    return instance, result


@dataclass
class ServiceBenchmarkResult:
    """Plan-service throughput vs the uncached planner on one request stream."""

    num_requests: int
    num_unique: int
    uncached_seconds: float
    service_seconds: float
    stats: ServiceStats
    failed_requests: int

    @property
    def repeated_fraction(self) -> float:
        return 1 - self.num_unique / self.num_requests

    @property
    def speedup(self) -> float:
        if self.service_seconds <= 0:
            return float("inf")
        return self.uncached_seconds / self.service_seconds

    def as_rows(self) -> list[list[str]]:
        """The metric/value rows reported by serve-bench and the benchmark."""
        latency = self.stats.overall_latency()
        return [
            ["requests", str(self.num_requests)],
            ["unique workloads", str(self.num_unique)],
            ["repeated requests", f"{self.repeated_fraction * 100:.0f}%"],
            ["cache hit rate", f"{self.stats.hit_rate * 100:.1f}%"],
            [
                "uncached planner",
                f"{self.uncached_seconds:.3f} s "
                f"({self.num_requests / self.uncached_seconds:.1f} req/s)",
            ],
            [
                "plan service",
                f"{self.service_seconds:.3f} s "
                f"({self.num_requests / self.service_seconds:.1f} req/s)",
            ],
            ["speedup", f"{self.speedup:.1f}x"],
            [
                "service latency",
                f"p50 {latency.p50 * 1e3:.2f} / p95 {latency.p95 * 1e3:.2f} / "
                f"p99 {latency.p99 * 1e3:.2f} ms",
            ],
        ]


def run_service_benchmark(
    workload: WorkloadSpec,
    num_requests: int,
    num_unique: int,
    num_workers: int = 4,
    max_batch_size: int = 8,
    seed: int = 0,
    journal=None,
    slo=None,
    num_tenants: int = 0,
) -> ServiceBenchmarkResult:
    """Replay one planning-request stream uncached, then through the service.

    This is the measurement protocol shared by ``repro serve-bench`` and
    ``benchmarks/bench_service_throughput.py``: the uncached reference runs
    one full ``ExecutionPlanner.plan()`` per request serially, the service run
    submits the same stream to a :class:`PlanService` and waits for every
    future.

    ``journal`` (a :class:`~repro.obs.TelemetryJournal`) and ``slo`` (a
    :class:`~repro.obs.SloTracker`) are threaded into the service when given;
    ``num_tenants > 0`` labels request ``i`` with tenant ``tenant-{i % n}``
    so per-tenant SLO rollups have something to group by.  The telemetry
    overhead benchmark runs this protocol twice — bare, then instrumented —
    and gates the ratio.
    """
    tasks = workload.tasks()
    cluster = workload.cluster()
    stream, num_unique = planning_request_stream(
        tasks, num_requests, num_unique, seed=seed
    )

    # Fingerprints are precomputed outside the timed window for both sides:
    # the uncached reference should pay planning cost only, and the service
    # memoizes fingerprints of repeated requests anyway.
    planner = ExecutionPlanner(cluster)
    config = planner.config_signature()
    unique_requests = {id(request): request for request in stream}
    fingerprints = {
        key: fingerprint_workload(request, cluster, config)
        for key, request in unique_requests.items()
    }
    tracer = get_tracer()
    with tracer.timed(
        "bench.uncached_planner", category="bench", requests=len(stream)
    ) as span:
        for request in stream:
            planner.plan(request, fingerprint=fingerprints[id(request)])
    uncached_seconds = span.seconds

    service_seconds, service, failed = serve_request_stream(
        stream,
        cluster,
        num_workers=num_workers,
        max_batch_size=max_batch_size,
        journal=journal,
        slo=slo,
        num_tenants=num_tenants,
    )
    return ServiceBenchmarkResult(
        num_requests=len(stream),
        num_unique=num_unique,
        uncached_seconds=uncached_seconds,
        service_seconds=service_seconds,
        stats=service.stats,
        failed_requests=failed,
    )


def serve_request_stream(
    stream: Sequence,
    cluster,
    num_workers: int = 4,
    max_batch_size: int = 8,
    journal=None,
    slo=None,
    num_tenants: int = 0,
) -> tuple[float, PlanService, int]:
    """The service side of :func:`run_service_benchmark`.

    Submits every request of ``stream`` to a fresh :class:`PlanService` (a
    planner per worker, a cache that holds every request's plan) and waits
    for every future.  Returns the wall-clock seconds from the first submit
    to the last resolution, the closed service and the number of requests
    that failed.
    """
    service = PlanService(
        lambda: ExecutionPlanner(cluster),
        cache=PlanCache(capacity=max(64, len(stream))),
        num_workers=num_workers,
        max_batch_size=max_batch_size,
        journal=journal,
        slo=slo,
    )
    with service:
        with get_tracer().timed(
            "bench.plan_service", category="bench", requests=len(stream)
        ) as span:
            futures = [
                service.submit(
                    request,
                    tenant=(
                        f"tenant-{index % num_tenants}" if num_tenants > 0 else None
                    ),
                )
                for index, request in enumerate(stream)
            ]
            wait(futures)
    failed = sum(1 for future in futures if future.exception() is not None)
    return span.seconds, service, failed


@dataclass
class ResilienceBenchmarkResult:
    """One seeded chaos replay against the resilient plan service.

    Everything in :meth:`canonical_report` is a pure function of
    ``(workload, num_requests, num_unique, profile, seed)`` — outcomes,
    serving tiers, injected-fault counts, persistence failures — so two runs
    with the same seed produce byte-identical reports
    (:meth:`signature`), which is what the resilience benchmark gates.
    Wall-clock quantities (``elapsed_seconds``, the latency percentiles in
    ``stats``) are deliberately excluded from the canonical report.
    """

    profile: FaultProfile
    seed: int
    num_requests: int
    num_unique: int
    responses: list[PlanResponse]
    stats: ServiceStats
    fault_counts: dict[str, int]
    fault_plan_signature: str
    payload_matches: int
    payload_total: int
    persist_attempts: int
    persist_failures: int
    corruptions_quarantined: int
    warm_start_loaded: int
    breaker_trips: int
    elapsed_seconds: float

    @property
    def availability(self) -> float:
        """Fraction of requests that resolved with a plan (served or degraded)."""
        if not self.responses:
            return 1.0
        return sum(1 for r in self.responses if r.ok) / len(self.responses)

    @property
    def payload_match_rate(self) -> float:
        """Fraction of served plans byte-identical to the fault-free solve."""
        if self.payload_total == 0:
            return 1.0
        return self.payload_matches / self.payload_total

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for response in self.responses:
            counts[response.outcome] = counts.get(response.outcome, 0) + 1
        return dict(sorted(counts.items()))

    def tier_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for response in self.responses:
            if response.tier is not None:
                counts[response.tier] = counts.get(response.tier, 0) + 1
        return dict(sorted(counts.items()))

    def canonical_report(self) -> dict:
        """The deterministic per-run record (no wall-clock, no object ids)."""
        return {
            "profile": self.profile.canonical_dict(),
            "seed": self.seed,
            "num_requests": self.num_requests,
            "num_unique": self.num_unique,
            "fault_plan": self.fault_plan_signature,
            "responses": [r.canonical_dict() for r in self.responses],
            "outcomes": self.outcome_counts(),
            "tiers": self.tier_counts(),
            "faults": dict(sorted(self.fault_counts.items())),
            "persist": {
                "attempts": self.persist_attempts,
                "failures": self.persist_failures,
            },
            "corruptions_quarantined": self.corruptions_quarantined,
            "warm_start_loaded": self.warm_start_loaded,
            "breaker_trips": self.breaker_trips,
            "payload": {
                "matches": self.payload_matches,
                "total": self.payload_total,
            },
        }

    def signature(self) -> str:
        """Content hash of :meth:`canonical_report` (same seed ⇒ same hash)."""
        return hash_document(self.canonical_report())

    def as_rows(self) -> list[list[str]]:
        """The metric/value rows reported by serve-bench under a fault profile."""
        outcomes = self.outcome_counts()
        tiers = self.tier_counts()
        faults_total = sum(self.fault_counts.values())
        return [
            ["fault profile", f"{self.profile.name} (seed {self.seed})"],
            ["requests", str(self.num_requests)],
            ["unique workloads", str(self.num_unique)],
            ["availability", f"{self.availability * 100:.1f}%"],
            [
                "outcomes",
                ", ".join(f"{k} {v}" for k, v in outcomes.items()) or "none",
            ],
            [
                "serving tiers",
                ", ".join(f"{k} {v}" for k, v in tiers.items()) or "none",
            ],
            [
                "faults injected",
                f"{faults_total} ("
                + (
                    ", ".join(
                        f"{k} {v}" for k, v in sorted(self.fault_counts.items()) if v
                    )
                    or "none"
                )
                + ")",
            ],
            [
                "plan integrity",
                f"{self.payload_matches}/{self.payload_total} byte-identical "
                "to fault-free solves",
            ],
            [
                "persistence",
                f"{self.persist_attempts} saves, {self.persist_failures} "
                f"injected failures, {self.warm_start_loaded} entries restorable",
            ],
            ["corrupt payloads quarantined", str(self.corruptions_quarantined)],
            ["report signature", self.signature()[:16]],
            ["elapsed", f"{self.elapsed_seconds:.3f} s"],
        ]


def _canonical_plan_payload(plan) -> str:
    """Plan bytes for integrity comparison: the full plan document minus the
    planning report (whose stage timings are wall-clock and whose curve-reuse
    counters depend on planner-instance history, not on the plan)."""
    document = plan_to_dict(plan)
    document.pop("planning_report", None)
    return json.dumps(document, sort_keys=True)


def run_resilience_benchmark(
    workload: WorkloadSpec,
    num_requests: int,
    num_unique: int,
    profile: str | FaultProfile = "chaos",
    seed: int = 0,
    num_workers: int = 2,
    max_batch_size: int = 8,
    persist_every: int = 8,
    store_path: str | Path | None = None,
    policy: ResiliencePolicy | None = None,
    journal=None,
    slo=None,
    num_tenants: int = 0,
) -> ResilienceBenchmarkResult:
    """Replay one request stream through the service under a seeded fault plan.

    The protocol behind ``repro serve-bench --fault-profile`` and
    ``benchmarks/bench_service_resilience.py``:

    1. Solve every unique workload fault-free (reference payloads).
    2. Generate the :class:`~repro.faults.plan.FaultPlan` for
       ``(profile, len(stream), seed)`` and bind an injector to a resilient
       :class:`~repro.service.PlanService` plus a checksummed
       :class:`~repro.service.PlanStore`.
    3. Submit the stream *serially* through
       :meth:`~repro.service.PlanService.request` (serial submission is what
       makes request ordinals — and therefore the injected schedule —
       deterministic), snapshotting the cache every ``persist_every``
       requests.
    4. Verify every response that carried a plan against the fault-free
       payload, then verify the final snapshot round-trips into a fresh
       cache.

    The default policy retries one attempt past the profile's worst
    per-fault failure streak, disables the wall-clock-coupled knobs
    (deadline, breaker) so outcomes stay a pure function of the seed, and
    leaves the reference rung of the degradation ladder enabled; pass
    ``policy`` to override.

    ``journal`` attaches a :class:`~repro.obs.TelemetryJournal` to the
    service (the service shares it with the injector and the cache, so fault
    injections and quarantines land in the same event stream); because
    submission is serial, two same-seed runs write byte-identical journals.
    ``slo`` threads a :class:`~repro.obs.SloTracker`; ``num_tenants > 0``
    labels request ``i`` with tenant ``tenant-{i % n}``.
    """
    if isinstance(profile, str):
        try:
            profile = FAULT_PROFILES[profile]
        except KeyError:
            raise KeyError(
                f"Unknown fault profile {profile!r}; "
                f"known: {', '.join(sorted(FAULT_PROFILES))}"
            ) from None
    tasks = workload.tasks()
    cluster = workload.cluster()
    stream, num_unique = planning_request_stream(
        tasks, num_requests, num_unique, seed=seed
    )

    # Fault-free reference payloads, one per unique workload.
    reference = ExecutionPlanner(cluster)
    config = reference.config_signature()
    reference_payloads: dict[str, str] = {}
    for request in {id(r): r for r in stream}.values():
        fp = fingerprint_workload(request, cluster, config)
        if fp not in reference_payloads:
            reference_payloads[fp] = _canonical_plan_payload(
                reference.plan(request, fingerprint=fp)
            )

    num_saves = len(stream) // max(persist_every, 1) + 1
    fault_plan = FaultPlan.generate(
        profile, len(stream), seed, num_persist_ops=num_saves
    )
    injector = FaultInjector(fault_plan)
    if policy is None:
        policy = ResiliencePolicy(
            max_attempts=profile.max_fail_attempts + 1,
            backoff_base_seconds=0.0005,
            backoff_max_seconds=0.002,
            breaker_failure_threshold=0,  # wall-clock reset breaks determinism
            seed=seed,
        )
    cache = PlanCache(capacity=max(64, num_unique))
    persist_attempts = 0
    persist_failures = 0

    with TemporaryDirectory(prefix="repro-plan-store-") as scratch:
        store = PlanStore(
            store_path if store_path is not None else Path(scratch) / "plans.json",
            injector=injector,
        )

        def _persist() -> None:
            nonlocal persist_attempts, persist_failures
            persist_attempts += 1
            try:
                store.save(cache)
            except OSError:
                persist_failures += 1

        service = PlanService(
            lambda: ExecutionPlanner(cluster),
            cache=cache,
            num_workers=num_workers,
            max_batch_size=max_batch_size,
            resilience=policy,
            fault_injector=injector,
            journal=journal,
            slo=slo,
        )
        responses: list[PlanResponse] = []
        with service:
            with get_tracer().timed(
                "bench.resilient_service",
                category="bench",
                requests=len(stream),
                profile=profile.name,
            ) as span:
                for index, request in enumerate(stream):
                    tenant = (
                        f"tenant-{index % num_tenants}" if num_tenants > 0 else None
                    )
                    responses.append(service.request(request, tenant=tenant))
                    if persist_every > 0 and (index + 1) % persist_every == 0:
                        _persist()
                _persist()
        elapsed = span.seconds

        restored = PlanCache(capacity=max(64, num_unique))
        warm_start_loaded = store.load_into(restored).loaded

    payload_matches = 0
    payload_total = 0
    for response in responses:
        if response.plan is None:
            continue
        payload_total += 1
        if _canonical_plan_payload(response.plan) == reference_payloads.get(
            response.fingerprint
        ):
            payload_matches += 1

    return ResilienceBenchmarkResult(
        profile=profile,
        seed=seed,
        num_requests=len(stream),
        num_unique=num_unique,
        responses=responses,
        stats=service.stats,
        fault_counts=injector.counts(),
        fault_plan_signature=fault_plan.signature(),
        payload_matches=payload_matches,
        payload_total=payload_total,
        persist_attempts=persist_attempts,
        persist_failures=persist_failures,
        corruptions_quarantined=cache.stats.corruptions,
        warm_start_loaded=warm_start_loaded,
        breaker_trips=service.breaker.trips,
        elapsed_seconds=elapsed,
    )
