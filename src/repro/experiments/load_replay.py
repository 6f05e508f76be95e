"""Fleet load replay: closed-loop clients against a live serving fleet.

The fleet benchmark needs request volumes 10–100x beyond
``bench_service_throughput``.  :func:`run_load_replay` draws a seeded stream
of overlapping task windows (:func:`fleet_request_stream`) and replays it
against a live :class:`~repro.service.fleet.PlanServiceFleet` from
multi-threaded closed-loop clients.  Every response latency is recorded
through the fleet's :class:`~repro.obs.slo.SloTracker` when one is given,
and every unique fingerprint's served payload is verified byte-for-byte
against a single uncached :class:`~repro.core.planner.ExecutionPlanner`
reference (canonically, i.e. minus the wall-clock ``planning_report``).
Wall-clock throughput is machine-dependent and therefore informational.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from random import Random

from repro.core.planner import ExecutionPlanner
from repro.experiments.harness import _canonical_plan_payload
from repro.experiments.workloads import WorkloadSpec
from repro.obs.slo import SloTracker
from repro.obs.tracer import get_tracer
from repro.service.fleet import PlanServiceFleet


class LoadReplayError(Exception):
    """Raised for an invalid replay configuration."""


def fleet_request_stream(
    tasks,
    num_requests: int,
    num_unique: int,
    seed: int = 0,
) -> tuple[list[tuple], int]:
    """A fleet-scale planning-request stream with up to ``n*(n+1)/2`` uniques.

    :func:`~repro.experiments.workloads.planning_request_stream` draws unique
    workloads from nested prefixes, capping uniqueness at ``len(tasks)`` —
    too few fingerprints for a fleet-scale stream.  This generator widens
    the pool to every contiguous task window (largest windows first, so the
    stream still leads with the full workload), keeping the
    overlapping-request pattern with many more distinct fingerprints.  Each
    unique workload is one interned tuple reused across its repeats, exactly
    like the narrower generator.
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


@dataclass
class LoadReplayResult:
    """One replay campaign against a live fleet (wall-clock; informational)."""

    num_requests: int
    num_unique: int
    num_clients: int
    wall_seconds: float
    real_rps: float
    failed_requests: int
    payload_matches: int
    payload_mismatches: int
    reference_solve_ms: float

    @property
    def payload_match_rate(self) -> float:
        total = self.payload_matches + self.payload_mismatches
        return self.payload_matches / total if total else 0.0

    def as_rows(self) -> list[list[str]]:
        return [
            ["requests", f"{self.num_requests} ({self.num_unique} unique)"],
            ["closed clients", str(self.num_clients)],
            ["wall time", f"{self.wall_seconds:.3f} s"],
            ["throughput", f"{self.real_rps:.0f} req/s (wall-clock)"],
            [
                "payload match",
                f"{self.payload_matches}"
                f"/{self.payload_matches + self.payload_mismatches}",
            ],
            ["failed requests", str(self.failed_requests)],
        ]


def run_load_replay(
    workload: WorkloadSpec,
    *,
    num_requests: int = 400,
    num_unique: int = 8,
    num_clients: int = 4,
    seed: int = 0,
    journal=None,
    slo: SloTracker | None = None,
) -> LoadReplayResult:
    """The replay campaign behind ``repro fleet-bench``.

    Drives a live fleet with ``num_clients`` closed-loop threads over the
    whole stream, then verifies every unique payload against an uncached
    single-planner reference.
    """
    tasks = workload.tasks()
    cluster = workload.cluster()
    stream, num_unique = fleet_request_stream(
        tasks, num_requests, num_unique, seed=seed
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

    # ---- live fleet, closed multi-threaded clients -----------------------
    fleet = PlanServiceFleet(
        lambda: ExecutionPlanner(cluster),
        capacity=max(64, num_unique),
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
        for request in unique_requests:
            payload = fleet.cache.get_payload(fleet.fingerprint(request))
            if payload is None:
                mismatches += 1
                continue
            document = json.loads(payload)
            document.pop("planning_report", None)
            if json.dumps(document, sort_keys=True) == canonical[id(request)]:
                matches += 1
            else:
                mismatches += 1

    return LoadReplayResult(
        num_requests=len(stream),
        num_unique=num_unique,
        num_clients=num_clients,
        wall_seconds=wall_seconds,
        real_rps=len(stream) / wall_seconds if wall_seconds > 0 else 0.0,
        failed_requests=sum(failures),
        payload_matches=matches,
        payload_mismatches=mismatches,
        reference_solve_ms=reference_solve_ms,
    )
