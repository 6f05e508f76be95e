"""Flash-crowd load replay: offered-rate arrival schedules, closed clients,
and a deterministic virtual-time fleet replay.

The fleet benchmark needs two things a single wall-clock run can't give on a
small CI box: request volumes 10–100x beyond ``bench_service_throughput``,
and a shard-scaling number that is *deterministic* (0.0% baseline drift)
despite the host's GIL and core count.  This module supplies both with a
two-phase protocol:

**Phase 1 — real execution.**  A seeded arrival schedule (steady or
flash-crowd) is replayed against a live :class:`~repro.service.fleet.
PlanServiceFleet` by multi-threaded closed-loop clients.  Every response
latency is recorded through the shared :class:`~repro.obs.slo.SloTracker`
(p50/p95/p99 land in the BENCH schema via ``to_bench_metrics``), and every
unique fingerprint's served payload is verified byte-for-byte against a
single uncached :class:`~repro.core.planner.ExecutionPlanner` reference
(canonically, i.e. minus the wall-clock ``planning_report``).  Wall-clock
throughput from this phase is machine-dependent and therefore
*informational*.

**Phase 2 — virtual-time replay.**  The same arrival schedule and routing
are replayed through a discrete-event queueing model: each shard is a FIFO
pool of ``num_workers`` servers, the first arrival of a fingerprint pays
the solve cost, concurrent duplicates coalesce onto the leader
(single-flight), and later arrivals pay the cache-hit cost.  Costs come
from a fixed document-derived model (solve cost scales with the plan
payload's size, which is deterministic for a given workload), so simulated
makespans, throughputs and latency percentiles are exact functions of
(workload, seed, rate, shard count) — the gated 1→4 shard scaling ratio
reproduces to the digit on any machine.  The percentiles are read from a
:class:`~repro.obs.metrics.Histogram` of the simulated latencies, like every
other latency percentile in the package.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from random import Random

from repro.core.planner import ExecutionPlanner
from repro.experiments.harness import _canonical_plan_payload
from repro.experiments.workloads import WorkloadSpec
from repro.obs.metrics import Histogram
from repro.obs.slo import SloTracker
from repro.obs.tracer import get_tracer
from repro.service.fleet import PlanServiceFleet, shard_for_fingerprint

SCENARIOS = ("steady", "flash-crowd")

#: Virtual-time cost model (milliseconds).  The solve cost scales with the
#: serialized plan's size — a deterministic stand-in for planning work that
#: grows with plan complexity the way the real planner's runtime does — and
#: the hit cost is a flat cache lookup.  Fixed constants, never measured, so
#: phase-2 results carry zero wall-clock noise.
SOLVE_COST_BASE_MS = 1.0
SOLVE_COST_MS_PER_KIB = 0.25
HIT_COST_MS = 0.02


class LoadReplayError(Exception):
    """Raised for invalid replay configuration (bad scenario, rate, shards)."""


def fleet_request_stream(
    tasks,
    num_requests: int,
    num_unique: int,
    seed: int = 0,
) -> tuple[list[tuple], int]:
    """A fleet-scale planning-request stream with up to ``n*(n+1)/2`` uniques.

    :func:`~repro.experiments.workloads.planning_request_stream` draws unique
    workloads from nested prefixes, capping uniqueness at ``len(tasks)`` —
    too few fingerprints to balance across 8 shards.  This generator widens
    the pool to every contiguous task window (largest windows first, so the
    stream still leads with the full workload), keeping the
    overlapping-request pattern while giving routing enough distinct
    fingerprints to spread.  Each unique workload is one interned tuple
    reused across its repeats, exactly like the narrower generator.
    """
    if num_requests <= 0:
        raise LoadReplayError("num_requests must be positive")
    windows: list[tuple] = []
    for width in range(len(tasks), 0, -1):
        for start in range(0, len(tasks) - width + 1):
            windows.append(tuple(tasks[start : start + width]))
    num_unique = max(1, min(num_unique, len(windows), num_requests))
    unique = windows[:num_unique]
    rng = Random(seed)
    stream = list(unique)
    stream.extend(rng.choice(unique) for _ in range(num_requests - len(unique)))
    rng.shuffle(stream)
    return stream, num_unique


def arrival_schedule(
    num_requests: int,
    rate: float,
    scenario: str = "flash-crowd",
    seed: int = 0,
    burst_factor: float = 8.0,
) -> list[float]:
    """Seeded open-loop arrival times (seconds) at ``rate`` requests/second.

    ``steady`` spaces arrivals exponentially around ``1/rate`` (a Poisson
    process).  ``flash-crowd`` splits the stream into warmup / crowd /
    cooldown thirds, with the middle third arriving at ``burst_factor *
    rate`` — the replan stampede a topology change triggers.  Deterministic
    for a given seed.
    """
    if scenario not in SCENARIOS:
        raise LoadReplayError(
            f"Unknown scenario {scenario!r}; expected one of {SCENARIOS}"
        )
    if rate <= 0:
        raise LoadReplayError("rate must be positive")
    rng = Random(seed)
    times: list[float] = []
    clock = 0.0
    third = max(1, num_requests // 3)
    for index in range(num_requests):
        current_rate = rate
        if scenario == "flash-crowd" and third <= index < 2 * third:
            current_rate = rate * burst_factor
        clock += rng.expovariate(current_rate)
        times.append(clock)
    return times


@dataclass
class SimulatedShardRun:
    """Virtual-time replay outcome for one shard count."""

    num_shards: int
    makespan_seconds: float
    throughput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    coalesced: int
    hits: int
    solves: int


@dataclass
class LoadReplayResult:
    """Both phases of one replay campaign."""

    scenario: str
    num_requests: int
    num_unique: int
    offered_rate: float
    num_clients: int
    real_shards: int
    # --- phase 1: live fleet (wall-clock; informational) ---
    wall_seconds: float
    real_rps: float
    failed_requests: int
    payload_matches: int
    payload_mismatches: int
    reference_solve_ms: float
    shard_census: list[int] = field(default_factory=list)
    # --- phase 2: virtual-time replay (deterministic; gated) ---
    simulated: dict[int, SimulatedShardRun] = field(default_factory=dict)

    @property
    def payload_match_rate(self) -> float:
        total = self.payload_matches + self.payload_mismatches
        return self.payload_matches / total if total else 0.0

    def scaling_ratio(self, low: int = 1, high: int = 4) -> float:
        """Simulated throughput ratio between two shard counts."""
        if low not in self.simulated or high not in self.simulated:
            raise LoadReplayError(
                f"scaling_ratio({low}, {high}) needs both shard counts simulated"
            )
        return (
            self.simulated[high].throughput_rps
            / self.simulated[low].throughput_rps
        )

    def as_rows(self) -> list[list[str]]:
        rows = [
            ["scenario", self.scenario],
            ["requests", f"{self.num_requests} ({self.num_unique} unique)"],
            ["offered rate", f"{self.offered_rate:.0f} req/s"],
            ["closed clients", str(self.num_clients)],
            ["real fleet", f"{self.real_shards} shards, {self.wall_seconds:.3f} s"],
            ["real throughput", f"{self.real_rps:.0f} req/s (wall-clock)"],
            [
                "payload match",
                f"{self.payload_matches}"
                f"/{self.payload_matches + self.payload_mismatches}",
            ],
            ["failed requests", str(self.failed_requests)],
        ]
        for shards in sorted(self.simulated):
            run = self.simulated[shards]
            rows.append(
                [
                    f"simulated {shards} shard(s)",
                    f"{run.throughput_rps:.0f} req/s, "
                    f"p50 {run.p50_ms:.2f} / p95 {run.p95_ms:.2f} / "
                    f"p99 {run.p99_ms:.2f} ms",
                ]
            )
        return rows


def simulate_fleet(
    arrivals: list[float],
    fingerprints: list[str],
    solve_cost_ms: dict[str, float],
    num_shards: int,
    num_workers: int = 1,
    hit_cost_ms: float = HIT_COST_MS,
    slo: SloTracker | None = None,
) -> SimulatedShardRun:
    """Deterministic discrete-event replay of one arrival schedule.

    Each shard is a FIFO pool of ``num_workers`` servers.  Requests are
    processed in arrival order; the routing is the fleet's real routing
    function (:func:`shard_for_fingerprint`).  Single-flight semantics
    mirror :class:`~repro.service.server.PlanService`: the first arrival of
    a fingerprint occupies a server for the solve cost, arrivals landing
    while that solve is in flight coalesce onto it (completing when the
    leader completes, consuming no server), and arrivals after completion
    are cache hits paying ``hit_cost_ms`` on a server.

    When ``slo`` is given, every simulated latency is recorded into it
    (outcome ``hit``/``miss``/``coalesced``) so the virtual percentiles flow
    through the same SLO rollup as live ones.
    """
    if num_shards <= 0:
        raise LoadReplayError("num_shards must be positive")
    # Per-shard server pools: next-free virtual time of each worker.
    servers = [[0.0] * num_workers for _ in range(num_shards)]
    solved_at: dict[str, float] = {}
    latencies = Histogram()
    coalesced = hits = solves = 0
    finish = 0.0
    for arrival, fingerprint in zip(arrivals, fingerprints):
        shard = shard_for_fingerprint(fingerprint, num_shards)
        pool = servers[shard]
        done = solved_at.get(fingerprint)
        if done is not None and done > arrival:
            # Leader still in flight: coalesce, no server consumed.
            completion = done
            coalesced += 1
        else:
            slot = min(range(len(pool)), key=pool.__getitem__)
            start = max(arrival, pool[slot])
            if done is None:
                cost = solve_cost_ms[fingerprint] / 1000.0
                solves += 1
            else:
                cost = hit_cost_ms / 1000.0
                hits += 1
            completion = start + cost
            pool[slot] = completion
            if done is None:
                solved_at[fingerprint] = completion
        latency = completion - arrival
        latencies.observe(latency)
        finish = max(finish, completion)
        if slo is not None:
            # Every simulated request resolves with a plan; hit/miss/coalesce
            # is tracked in the run's own counters, while the SLO rollup sees
            # the serving outcome so availability and latency percentiles
            # aggregate like the live fleet's.
            slo.record("served", latency, topology=f"sim-{num_shards}")
    makespan = max(finish, arrivals[-1] if arrivals else 0.0)
    summary = latencies.summary()
    return SimulatedShardRun(
        num_shards=num_shards,
        makespan_seconds=makespan,
        throughput_rps=len(arrivals) / makespan if makespan > 0 else 0.0,
        p50_ms=summary.p50 * 1000.0,
        p95_ms=summary.p95 * 1000.0,
        p99_ms=summary.p99 * 1000.0,
        coalesced=coalesced,
        hits=hits,
        solves=solves,
    )


def document_solve_cost_ms(payload: str) -> float:
    """Deterministic solve cost of a plan from its serialized size."""
    return SOLVE_COST_BASE_MS + SOLVE_COST_MS_PER_KIB * (len(payload) / 1024.0)


def run_load_replay(
    workload: WorkloadSpec,
    *,
    num_requests: int = 400,
    num_unique: int = 8,
    rate: float = 2000.0,
    scenario: str = "flash-crowd",
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    real_shards: int = 2,
    num_workers: int = 1,
    num_clients: int = 4,
    seed: int = 0,
    journal=None,
    slo: SloTracker | None = None,
) -> LoadReplayResult:
    """The full two-phase campaign behind ``repro fleet-bench``.

    Phase 1 drives a live ``real_shards``-shard fleet with ``num_clients``
    closed-loop threads over the whole stream, verifying every unique
    payload against an uncached single-planner reference; phase 2 replays
    the identical arrival schedule in virtual time for every entry of
    ``shard_counts``.
    """
    tasks = workload.tasks()
    cluster = workload.cluster()
    stream, num_unique = fleet_request_stream(
        tasks, num_requests, num_unique, seed=seed
    )
    arrivals = arrival_schedule(
        len(stream), rate, scenario=scenario, seed=seed
    )

    # ---- uncached reference: canonical payloads + measured solve time ----
    reference = ExecutionPlanner(cluster)
    unique_requests = list({id(request): request for request in stream}.values())
    canonical: dict[int, str] = {}
    tracer = get_tracer()
    with tracer.timed(
        "load_replay.reference", category="bench", requests=len(unique_requests)
    ) as span:
        for request in unique_requests:
            canonical[id(request)] = _canonical_plan_payload(
                reference.plan(request)
            )
    reference_solve_ms = (
        span.seconds * 1000.0 / len(unique_requests) if unique_requests else 0.0
    )

    # ---- phase 1: live fleet, closed multi-threaded clients --------------
    fleet = PlanServiceFleet(
        lambda: ExecutionPlanner(cluster),
        num_shards=real_shards,
        capacity=max(64, num_unique),
        num_workers=num_workers,
        journal=journal,
        slo=slo,
        trace_seed=seed,
    )
    failures = [0] * num_clients
    chunks = [stream[index::num_clients] for index in range(num_clients)]

    def closed_client(ordinal: int) -> None:
        for request in chunks[ordinal]:
            try:
                fleet.plan(request, timeout=60.0)
            except Exception:
                failures[ordinal] += 1

    with fleet:
        with tracer.timed(
            "load_replay.fleet", category="bench", requests=len(stream)
        ) as span:
            clients = [
                threading.Thread(
                    target=closed_client, args=(ordinal,), daemon=True
                )
                for ordinal in range(num_clients)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join()
        wall_seconds = span.seconds

        # Byte-identity audit: every unique fingerprint's served payload,
        # canonicalised, must equal the uncached reference's.
        matches = mismatches = 0
        solve_cost_ms: dict[str, float] = {}
        fingerprints = [fleet.fingerprint(request) for request in stream]
        for request in unique_requests:
            fingerprint = fleet.fingerprint(request)
            payload = fleet.cache.get_payload(fingerprint)
            if payload is None:
                mismatches += 1
                continue
            document = json.loads(payload)
            document.pop("planning_report", None)
            served = json.dumps(document, sort_keys=True)
            if served == canonical[id(request)]:
                matches += 1
            else:
                mismatches += 1
            solve_cost_ms[fingerprint] = document_solve_cost_ms(served)
        census = fleet.shard_census()

    # ---- phase 2: deterministic virtual-time shard sweep -----------------
    # Missing costs (payload evicted before audit) fall back to the base
    # cost so the sweep always covers the full schedule.
    for fingerprint in set(fingerprints):
        solve_cost_ms.setdefault(fingerprint, SOLVE_COST_BASE_MS)
    simulated = {
        shards: simulate_fleet(
            arrivals,
            fingerprints,
            solve_cost_ms,
            num_shards=shards,
            num_workers=num_workers,
            slo=slo,
        )
        for shards in shard_counts
    }

    return LoadReplayResult(
        scenario=scenario,
        num_requests=len(stream),
        num_unique=num_unique,
        offered_rate=rate,
        num_clients=num_clients,
        real_shards=real_shards,
        wall_seconds=wall_seconds,
        real_rps=len(stream) / wall_seconds if wall_seconds > 0 else 0.0,
        failed_requests=sum(failures),
        payload_matches=matches,
        payload_mismatches=mismatches,
        reference_solve_ms=reference_solve_ms,
        shard_census=census,
        simulated=simulated,
    )
