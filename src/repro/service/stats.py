"""Service-level throughput, latency and hit-rate accounting.

The plan service records one observation per resolved request: how it was
satisfied (cache hit, coalesced onto an in-flight computation, a fresh
planner run, a degraded tier or a shed) and its end-to-end latency, or an
error.  :class:`ServiceStats` keeps one
:class:`~repro.obs.metrics.Histogram` per outcome, so its memory is bounded
however long the service runs, and aggregates them into the numbers an
operator of a serving tier watches — throughput, latency percentiles and
the hit/coalesce split — rendered as a small report table.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import Histogram, HistogramSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

#: Request outcomes recorded by the plan service.  ``degraded`` marks
#: requests served through a degradation-ladder tier (stale / incremental /
#: reference) after fresh planning failed; ``shed`` marks requests rejected
#: by bounded-queue admission control.
OUTCOME_HIT = "hit"
OUTCOME_MISS = "miss"
OUTCOME_COALESCED = "coalesced"
OUTCOME_DEGRADED = "degraded"
OUTCOME_SHED = "shed"

_OUTCOMES = (
    OUTCOME_HIT,
    OUTCOME_MISS,
    OUTCOME_COALESCED,
    OUTCOME_DEGRADED,
    OUTCOME_SHED,
)


class ServiceStats:
    """Thread-safe accumulator of per-request service observations.

    Every request the service resolves lands here exactly once: a served,
    degraded or shed request through :meth:`record`, a failed one through
    :meth:`record_error`.  :attr:`errors` therefore counts failed requests,
    coalesced followers of a failed solve included, and is not part of
    :attr:`total_requests`.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._started_at = clock()
        self._latencies = {outcome: Histogram() for outcome in _OUTCOMES}
        self._errors = 0

    # -------------------------------------------------------------- recording
    def record(self, outcome: str, latency_seconds: float) -> None:
        if outcome not in _OUTCOMES:
            raise ValueError(f"Unknown request outcome {outcome!r}")
        with self._lock:
            self._latencies[outcome].observe(latency_seconds)

    def record_error(self) -> None:
        with self._lock:
            self._errors += 1

    # ------------------------------------------------------------- aggregates
    @property
    def total_requests(self) -> int:
        with self._lock:
            return sum(h.count for h in self._latencies.values())

    @property
    def errors(self) -> int:
        with self._lock:
            return self._errors

    def count(self, outcome: str) -> int:
        with self._lock:
            return self._latencies[outcome].count

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without a fresh planner run."""
        with self._lock:
            total = sum(h.count for h in self._latencies.values())
            if total == 0:
                return 0.0
            served = (
                self._latencies[OUTCOME_HIT].count
                + self._latencies[OUTCOME_COALESCED].count
            )
            return served / total

    @property
    def elapsed_seconds(self) -> float:
        return self._clock() - self._started_at

    @property
    def throughput(self) -> float:
        """Completed requests per second since the stats object was created."""
        elapsed = self.elapsed_seconds
        if elapsed <= 0:
            return 0.0
        return self.total_requests / elapsed

    def latency(self, outcome: str) -> HistogramSummary:
        with self._lock:
            return self._latencies[outcome].summary()

    def overall_latency(self) -> HistogramSummary:
        merged = Histogram()
        with self._lock:
            for histogram in self._latencies.values():
                merged.merge(histogram)
        return merged.summary()

    # -------------------------------------------------------------- reporting
    def to_registry(
        self, registry: "MetricsRegistry | None" = None
    ) -> "MetricsRegistry":
        """Export the accumulated observations under the canonical obs names.

        Fills ``service.requests``, ``service.cache{outcome=...}`` and
        ``service.errors`` counters, ``service.hit_rate`` /
        ``service.throughput`` gauges, and the ``service.latency_seconds``
        histogram (overall plus one per outcome).  A fresh registry is
        created when none is passed.
        """
        from repro.obs.metrics import MetricsRegistry

        registry = registry if registry is not None else MetricsRegistry()
        with self._lock:
            latencies = {o: h.copy() for o, h in self._latencies.items()}
            errors = self._errors
        for outcome, histogram in latencies.items():
            registry.inc("service.cache", histogram.count, outcome=outcome)
            if histogram.count:
                registry.merge("service.latency_seconds", histogram, outcome=outcome)
                registry.merge("service.latency_seconds", histogram)
        registry.inc("service.requests", sum(h.count for h in latencies.values()))
        registry.inc("service.errors", errors)
        registry.gauge("service.hit_rate", self.hit_rate)
        registry.gauge("service.throughput", self.throughput)
        return registry

    def to_metrics(self, prefix: str = "") -> "dict[str, object]":
        """The counters as benchmark :class:`~repro.bench.result.Metric` values.

        Routed through the canonical obs registry names (:meth:`to_registry`)
        and re-keyed to the metric names the existing ``BENCH_*.json``
        baselines pin, so the registry naming scheme and the benchmark schema
        stay one dataset.  Count- and rate-style counters are gated (they are
        deterministic for a replayed request stream); wall-clock
        latency/throughput numbers are informational, since they vary with
        the machine running the suite.
        """
        from repro.bench.result import Metric, informational

        registry = self.to_registry()
        overall = registry.histogram_summary("service.latency_seconds")
        return {
            f"{prefix}requests": Metric(
                registry.counter_value("service.requests"), "req"
            ),
            f"{prefix}hit_rate": Metric(
                registry.gauge_value("service.hit_rate"), "", higher_is_better=True
            ),
            f"{prefix}errors": Metric(
                registry.counter_value("service.errors"), "", regression_threshold=0.0
            ),
            f"{prefix}throughput": informational(
                registry.gauge_value("service.throughput"), "req/s"
            ),
            f"{prefix}latency_p50": informational(overall.p50 * 1e3, "ms"),
            f"{prefix}latency_p95": informational(overall.p95 * 1e3, "ms"),
            f"{prefix}latency_p99": informational(overall.p99 * 1e3, "ms"),
        }

    def as_dict(self) -> dict[str, float]:
        overall = self.overall_latency()
        return {
            "requests": self.total_requests,
            "hits": self.count(OUTCOME_HIT),
            "misses": self.count(OUTCOME_MISS),
            "coalesced": self.count(OUTCOME_COALESCED),
            "degraded": self.count(OUTCOME_DEGRADED),
            "shed": self.count(OUTCOME_SHED),
            "errors": self.errors,
            "hit_rate": self.hit_rate,
            "throughput_rps": self.throughput,
            "latency_mean_s": overall.mean,
            "latency_p50_s": overall.p50,
            "latency_p95_s": overall.p95,
            "latency_p99_s": overall.p99,
        }

    def render(self) -> str:
        """Human-readable multi-line summary of the service counters."""
        resilience = ""
        if self.count(OUTCOME_DEGRADED) or self.count(OUTCOME_SHED):
            resilience = (
                f", degraded {self.count(OUTCOME_DEGRADED)}, "
                f"shed {self.count(OUTCOME_SHED)}"
            )
        lines = [
            f"requests     : {self.total_requests} "
            f"(hits {self.count(OUTCOME_HIT)}, "
            f"coalesced {self.count(OUTCOME_COALESCED)}, "
            f"misses {self.count(OUTCOME_MISS)}, errors {self.errors}"
            f"{resilience})",
            f"hit rate     : {self.hit_rate * 100:.1f}%",
            f"throughput   : {self.throughput:.1f} req/s",
        ]
        for outcome in _OUTCOMES:
            summary = self.latency(outcome)
            if summary.count == 0:
                continue
            lines.append(
                f"latency {outcome:<9}: mean {summary.mean * 1e3:.2f} ms, "
                f"p50 {summary.p50 * 1e3:.2f} ms, p95 {summary.p95 * 1e3:.2f} ms"
            )
        return "\n".join(lines)
