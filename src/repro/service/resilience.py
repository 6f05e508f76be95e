"""Resilience policies for the plan service: retries, deadlines, breakers.

This module holds the *policy* half of the fault-tolerant service (the
mechanics live in :mod:`repro.service.server`):

* :class:`ResiliencePolicy` — the knobs: per-request deadline, bounded retry
  with exponential backoff plus seeded jitter, circuit-breaker thresholds,
  bounded-queue admission control, and the reference-rung toggle.
* :class:`CircuitBreaker` — a per-service (hence per
  :class:`~repro.service.fleet.PlanServiceFleet`) closed → open → half-open
  breaker over consecutive solve failures.
* :class:`PlanResponse` — the per-request resolution record: exactly one
  outcome (``served`` / ``degraded`` / ``shed`` / ``error``) plus the ladder
  tier that produced it, which is the unit the chaos invariants quantify
  over.

Determinism: backoff jitter is drawn from a :class:`random.Random` seeded
with ``(policy.seed, request_index, attempt)`` — no process-global RNG — so a
replayed request stream backs off identically.  Wall-clock never enters a
canonical report; only outcomes, tiers and counts do.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.plan import ExecutionPlan

#: Ladder tiers, best first.  ``cache`` and ``fresh`` resolve as ``served``;
#: ``reference`` resolves as ``degraded``.
TIER_CACHE = "cache"
TIER_FRESH = "fresh"
TIER_REFERENCE = "reference"

DEGRADED_TIERS = (TIER_REFERENCE,)

#: Per-request outcomes: every admitted or rejected request ends in exactly
#: one of these.
RESPONSE_SERVED = "served"
RESPONSE_DEGRADED = "degraded"
RESPONSE_SHED = "shed"
RESPONSE_ERROR = "error"

#: Circuit-breaker states, exported as the ``service.breaker_state`` gauge.
BREAKER_CLOSED = 0
BREAKER_HALF_OPEN = 1
BREAKER_OPEN = 2


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the hardened service path.

    Parameters
    ----------
    max_attempts:
        Solve attempts per request (including the first) before the request
        falls through to the degradation ladder.
    backoff_base_seconds / backoff_multiplier / backoff_max_seconds:
        Exponential backoff between attempts: attempt ``k`` (k >= 1) waits
        ``min(base * multiplier**(k-1), max)`` scaled by jitter.
    backoff_jitter:
        Fractional jitter: the wait is multiplied by a seeded uniform draw
        from ``[1 - jitter, 1 + jitter]``.
    deadline_seconds:
        Per-request deadline measured from submission; an attempt never
        starts (and a backoff never sleeps) past the deadline — the request
        degrades instead.  ``None`` disables deadlines.
    breaker_failure_threshold / breaker_reset_seconds:
        Consecutive solve failures that trip the breaker open, and how long
        it stays open before admitting one half-open probe.  A threshold of
        ``0`` disables the breaker.
    max_queue_depth:
        Bounded-queue admission control: a request arriving while this many
        requests are queued or in flight is shed immediately with
        :class:`~repro.service.server.ServiceOverloadError`.  ``None``
        disables shedding.
    allow_reference:
        The degradation ladder's one rung: once retries are exhausted, solve
        on the reference-path planner.  It applies only when the service's
        planner has the reference planner's configuration; disabled or
        inapplicable, exhaustion is a hard error.
    seed:
        Seed of the backoff-jitter stream.
    """

    max_attempts: int = 3
    backoff_base_seconds: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 0.1
    backoff_jitter: float = 0.25
    deadline_seconds: float | None = None
    breaker_failure_threshold: int = 5
    breaker_reset_seconds: float = 0.5
    max_queue_depth: int | None = None
    allow_reference: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_seconds < 0 or self.backoff_max_seconds < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be at least 1.0")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must be in [0, 1)")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive (or None)")
        if self.breaker_failure_threshold < 0:
            raise ValueError("breaker_failure_threshold must be non-negative")
        if self.breaker_reset_seconds <= 0:
            raise ValueError("breaker_reset_seconds must be positive")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive (or None)")

    def backoff_seconds(self, request_index: int, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` (attempt >= 1)."""
        if attempt < 1:
            return 0.0
        base = min(
            self.backoff_base_seconds * self.backoff_multiplier ** (attempt - 1),
            self.backoff_max_seconds,
        )
        if self.backoff_jitter == 0.0 or base == 0.0:
            return base
        rng = random.Random(f"{self.seed}:{request_index}:{attempt}")
        return base * (1.0 + self.backoff_jitter * (2.0 * rng.random() - 1.0))


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    ``allow()`` answers "may a solve attempt run right now?".  Closed always
    allows; open rejects until ``reset_seconds`` have elapsed, then moves to
    half-open and admits probes; a success in half-open closes the breaker,
    a failure reopens it.  Thread-safe; the clock is injectable so tests can
    step time deterministically.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_seconds: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 0:
            raise ValueError("failure_threshold must be non-negative")
        if reset_seconds <= 0:
            raise ValueError("reset_seconds must be positive")
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: Times the breaker tripped open (monotonically increasing).
        self.trips = 0

    @property
    def state(self) -> int:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """Whether a solve attempt may run now (disabled breakers always do)."""
        if self.failure_threshold == 0:
            return True
        with self._lock:
            self._maybe_half_open()
            return self._state != BREAKER_OPEN

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._state = BREAKER_CLOSED

    def record_failure(self) -> None:
        if self.failure_threshold == 0:
            return
        with self._lock:
            self._maybe_half_open()
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN or (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self.trips += 1

    def _maybe_half_open(self) -> None:
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at >= self.reset_seconds
        ):
            self._state = BREAKER_HALF_OPEN


@dataclass
class PlanResponse:
    """How one request resolved: exactly one outcome, one serving tier.

    ``plan`` is the live plan for every tier that produced one.
    ``attempts`` counts solve attempts actually started (0 for cache hits
    and sheds).  ``error`` carries the final error string for
    ``outcome == "error"``.

    ``trace_id`` is the deterministic request ID minted at submission (the
    key into the telemetry journal; coalesced followers keep their own IDs
    even though they resolve with the leader's plan), and ``tenant`` the
    optional accounting label the request was submitted under.  Both are
    deterministic under serial submission, so they belong in the canonical
    report.
    """

    outcome: str
    tier: str | None
    fingerprint: str
    plan: "ExecutionPlan | None" = None
    attempts: int = 0
    error: str | None = None
    trace_id: str | None = None
    tenant: str | None = None

    @property
    def ok(self) -> bool:
        return self.outcome in (RESPONSE_SERVED, RESPONSE_DEGRADED)

    @property
    def degraded(self) -> bool:
        return self.outcome == RESPONSE_DEGRADED

    def canonical_dict(self) -> dict:
        """Deterministic per-request record (no wall-clock, no object ids)."""
        return {
            "outcome": self.outcome,
            "tier": self.tier,
            "fingerprint": self.fingerprint,
            "plan_fingerprint": (
                self.plan.fingerprint if self.plan is not None else None
            ),
            "attempts": self.attempts,
            "error": self.error,
            "trace_id": self.trace_id,
            "tenant": self.tenant,
        }
