"""Deterministic fault schedules: seeded, canonical, replayable.

Following the operational-event framing of the unified timeline (ordered
event streams applied atomically to runtime state), a fault campaign against
the planning service is expressed as data, not as ambient randomness: a
:class:`FaultPlan` is the full, pre-drawn schedule of every fault the service
will experience, generated once from ``(profile, num_requests, seed)``.  The
injector (:mod:`repro.faults.injection`) only *reads* the schedule, so

* the same seed produces the same schedule, byte for byte
  (:meth:`FaultPlan.canonical_dict` / :meth:`FaultPlan.signature`),
* two service runs against the same schedule make identical injection
  decisions at identical points, which is what lets the resilience benchmark
  gate its canonical report at 0.0% drift,
* a failing chaos run is reproducible from nothing but the profile name and
  the seed (``repro serve-bench --fault-profile chaos --fault-seed N``).

Fault kinds
-----------
``worker_crash``
    The worker thread planning the request dies mid-solve; the service must
    respawn the worker and retry the request on another attempt.
``planner_error``
    The solve raises; retried with backoff, then degraded.
``slow_solve``
    The solve stalls for ``delay_seconds`` before proceeding (deadline and
    latency-percentile fodder).
``cache_corruption``
    The serialized payload cached for the request is corrupted after
    insertion; checksum verification must quarantine it instead of serving
    corrupt bytes.
``persist_error``
    A plan-store snapshot write fails mid-operation; the previous snapshot
    on disk must stay intact.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Iterable


def _hash_document(document: Any) -> str:
    """SHA-256 of a JSON document (stdlib twin of service.fingerprint's
    ``hash_document``; duplicated here so ``repro.faults`` never imports the
    service package it is injected into)."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

#: Fault kinds injectable into the planning service.
WORKER_CRASH = "worker_crash"
PLANNER_ERROR = "planner_error"
SLOW_SOLVE = "slow_solve"
CACHE_CORRUPTION = "cache_corruption"
PERSIST_ERROR = "persist_error"

#: Draw order of the per-request fault kinds.  Fixed: the schedule is a pure
#: function of (profile, num_requests, seed) only because every generation
#: consumes the RNG stream in exactly this order.
FAULT_KINDS = (
    WORKER_CRASH,
    PLANNER_ERROR,
    SLOW_SOLVE,
    CACHE_CORRUPTION,
    PERSIST_ERROR,
)


class FaultPlanError(ValueError):
    """Raised for invalid fault profiles or schedules."""


@dataclass(frozen=True)
class FaultProfile:
    """Per-kind fault rates a schedule is drawn from.

    Rates are per request (``persist_error_rate`` is per store *save*).  A
    faulty request fails ``1..max_fail_attempts`` consecutive solve attempts
    before succeeding, so whether the service recovers via retry or via the
    degradation ladder depends on its ``max_attempts`` policy knob.
    """

    name: str
    worker_crash_rate: float = 0.0
    planner_error_rate: float = 0.0
    slow_solve_rate: float = 0.0
    slow_solve_seconds: float = 0.02
    cache_corruption_rate: float = 0.0
    persist_error_rate: float = 0.0
    max_fail_attempts: int = 2

    def __post_init__(self) -> None:
        for field_name in (
            "worker_crash_rate",
            "planner_error_rate",
            "slow_solve_rate",
            "cache_corruption_rate",
            "persist_error_rate",
        ):
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{field_name} must be in [0, 1], got {rate}")
        if self.slow_solve_seconds < 0:
            raise FaultPlanError("slow_solve_seconds must be non-negative")
        if self.max_fail_attempts < 1:
            raise FaultPlanError("max_fail_attempts must be at least 1")

    def canonical_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "worker_crash_rate": self.worker_crash_rate,
            "planner_error_rate": self.planner_error_rate,
            "slow_solve_rate": self.slow_solve_rate,
            "slow_solve_seconds": self.slow_solve_seconds,
            "cache_corruption_rate": self.cache_corruption_rate,
            "persist_error_rate": self.persist_error_rate,
            "max_fail_attempts": self.max_fail_attempts,
        }


#: Named profiles selectable from the CLI and the benchmarks.  ``chaos`` is
#: the acceptance profile: >=10% worker crashes, >=5% cache corruption and
#: injected slow solves, which the resilience benchmark must absorb with
#: 100% availability.
FAULT_PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "mild": FaultProfile(
        name="mild",
        worker_crash_rate=0.05,
        planner_error_rate=0.05,
        slow_solve_rate=0.05,
        slow_solve_seconds=0.01,
        cache_corruption_rate=0.02,
        persist_error_rate=0.05,
        max_fail_attempts=1,
    ),
    "chaos": FaultProfile(
        name="chaos",
        worker_crash_rate=0.15,
        planner_error_rate=0.15,
        slow_solve_rate=0.10,
        slow_solve_seconds=0.02,
        cache_corruption_rate=0.08,
        persist_error_rate=0.25,
        max_fail_attempts=3,
    ),
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``index`` is the ordinal of the request (assigned at submission) or, for
    ``persist_error``, of the store save operation the event applies to.
    ``attempts`` is how many consecutive solve attempts the fault sinks
    (crash/error kinds); ``delay_seconds`` is the injected stall
    (``slow_solve`` only).
    """

    index: int
    kind: str
    attempts: int = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(f"Unknown fault kind {self.kind!r}")
        if self.index < 0:
            raise FaultPlanError("FaultEvent.index must be non-negative")
        if self.attempts < 1:
            raise FaultPlanError("FaultEvent.attempts must be at least 1")
        if self.delay_seconds < 0:
            raise FaultPlanError("FaultEvent.delay_seconds must be non-negative")

    def canonical_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "attempts": self.attempts,
            "delay_seconds": self.delay_seconds,
        }


class FaultPlan:
    """An ordered, seeded schedule of fault events.

    Request-scoped events (``worker_crash``, ``planner_error``,
    ``slow_solve``, ``cache_corruption``) key on the request ordinal;
    ``persist_error`` events key on the store-save ordinal.  Generation draws
    the kinds in :data:`FAULT_KINDS` order per index, so identical inputs
    produce identical schedules.
    """

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        *,
        profile: FaultProfile | None = None,
        seed: int = 0,
        num_requests: int = 0,
    ) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.index, FAULT_KINDS.index(e.kind)))
        )
        self.profile = profile
        self.seed = seed
        self.num_requests = num_requests
        self._by_request: dict[int, dict[str, FaultEvent]] = {}
        self._persist: dict[int, FaultEvent] = {}
        for event in self.events:
            if event.kind == PERSIST_ERROR:
                self._persist[event.index] = event
            else:
                self._by_request.setdefault(event.index, {})[event.kind] = event

    # ------------------------------------------------------------ generation
    @classmethod
    def generate(
        cls,
        profile: FaultProfile,
        num_requests: int,
        seed: int = 0,
        *,
        num_persist_ops: int = 8,
    ) -> "FaultPlan":
        """Draw one schedule; a pure function of its three arguments."""
        if num_requests < 0:
            raise FaultPlanError("num_requests must be non-negative")
        rng = random.Random(f"{seed}:{profile.name}:{num_requests}")
        events: list[FaultEvent] = []
        for index in range(num_requests):
            if rng.random() < profile.worker_crash_rate:
                events.append(
                    FaultEvent(
                        index=index,
                        kind=WORKER_CRASH,
                        attempts=rng.randint(1, profile.max_fail_attempts),
                    )
                )
            if rng.random() < profile.planner_error_rate:
                events.append(
                    FaultEvent(
                        index=index,
                        kind=PLANNER_ERROR,
                        attempts=rng.randint(1, profile.max_fail_attempts),
                    )
                )
            if rng.random() < profile.slow_solve_rate:
                events.append(
                    FaultEvent(
                        index=index,
                        kind=SLOW_SOLVE,
                        delay_seconds=round(
                            profile.slow_solve_seconds * (0.5 + rng.random()), 6
                        ),
                    )
                )
            if rng.random() < profile.cache_corruption_rate:
                events.append(FaultEvent(index=index, kind=CACHE_CORRUPTION))
        for index in range(num_persist_ops):
            if rng.random() < profile.persist_error_rate:
                events.append(FaultEvent(index=index, kind=PERSIST_ERROR))
        return cls(
            events, profile=profile, seed=seed, num_requests=num_requests
        )

    # --------------------------------------------------------------- lookups
    def fail_attempts(self, index: int) -> int:
        """How many consecutive solve attempts of request ``index`` fail."""
        total = 0
        for kind in (WORKER_CRASH, PLANNER_ERROR):
            event = self._by_request.get(index, {}).get(kind)
            if event is not None:
                total += event.attempts
        return total

    def failing_kind(self, index: int, attempt: int) -> str | None:
        """The fault kind sinking ``attempt`` of request ``index``, if any.

        Crash attempts are scheduled before error attempts; ``None`` means the
        attempt proceeds (possibly slowly — see :meth:`delay_for`).
        """
        scheduled = self._by_request.get(index, {})
        crash = scheduled.get(WORKER_CRASH)
        crash_attempts = crash.attempts if crash is not None else 0
        if attempt < crash_attempts:
            return WORKER_CRASH
        error = scheduled.get(PLANNER_ERROR)
        if error is not None and attempt < crash_attempts + error.attempts:
            return PLANNER_ERROR
        return None

    def delay_for(self, index: int) -> float:
        event = self._by_request.get(index, {}).get(SLOW_SOLVE)
        return event.delay_seconds if event is not None else 0.0

    def corrupts_cache(self, index: int) -> bool:
        return CACHE_CORRUPTION in self._by_request.get(index, {})

    def persist_fails(self, save_index: int) -> bool:
        return save_index in self._persist

    # -------------------------------------------------------------- identity
    def canonical_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "num_requests": self.num_requests,
            "profile": (
                self.profile.canonical_dict() if self.profile is not None else None
            ),
            "events": [event.canonical_dict() for event in self.events],
        }

    def signature(self) -> str:
        """Content hash of the schedule (stable across runs and processes)."""
        return _hash_document(self.canonical_dict())

    def __len__(self) -> int:
        return len(self.events)
