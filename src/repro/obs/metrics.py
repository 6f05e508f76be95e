"""Metrics registry: counters, gauges and histograms under canonical names.

The registry is the aggregate half of the observability layer (spans in
:mod:`repro.obs.tracer` are the timeline half).  Metric identity is the pair
of a dotted name and a sorted label set, rendered canonically as
``name{label=value,...}`` — the naming scheme shared across the codebase:

===================================  ======================================
``planner.solve_seconds{stage=...}``  histogram, one observation per planner
                                      pipeline stage per solve
``service.requests`` /
``service.cache{outcome=...}``        counters of plan-service request
                                      outcomes (``hit``/``miss``/
                                      ``coalesced``)
``elastic.replan_seconds{policy=..}`` histogram of measured replan
                                      wall-clock per replan policy
``simulator.wave_seconds``            histogram of *simulated* per-wave
                                      durations
===================================  ======================================

:class:`Histogram` is the package's one latency store: the registry,
:class:`~repro.service.stats.ServiceStats` and the SLO windows all read
their percentiles from it.

:meth:`MetricsRegistry.snapshot` freezes the current values;
:meth:`MetricsSnapshot.diff` subtracts an earlier snapshot so a caller can
meter exactly one region of work, percentiles included.
:meth:`MetricsRegistry.to_bench_metrics` exports a snapshot into the
benchmark :class:`~repro.bench.result.Metric` schema, which is how registry
values land in ``BENCH_*.json`` via :class:`~repro.bench.result.BenchResult`.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from math import ceil, floor, inf, log
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.result import BenchResult, Metric

#: Relative accuracy α of every histogram percentile.  Bucket ``i`` holds the
#: values in ``(γ^(i-1), γ^i]`` with ``γ = (1 + α) / (1 - α)``, so the
#: bucket's representative ``2γ^i / (γ + 1)`` is within α of each of them.
RELATIVE_ACCURACY = 0.01
_GAMMA = (1.0 + RELATIVE_ACCURACY) / (1.0 - RELATIVE_ACCURACY)
_LOG_GAMMA = log(_GAMMA)


def metric_key(name: str, labels: Mapping[str, Any] | None = None) -> str:
    """Canonical ``name{k=v,...}`` rendering with labels sorted by key."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`metric_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for part in inner[:-1].split(","):
        if part:
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


@dataclass(frozen=True)
class HistogramSummary:
    """Point-in-time summary of one histogram."""

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def _representative(index: int) -> float:
    return 2.0 * _GAMMA**index / (_GAMMA + 1.0)


class Histogram:
    """Log-bucketed histogram: bounded memory, mergeable and subtractable.

    Values land in sparse buckets (see :data:`RELATIVE_ACCURACY`); zeros
    have a count of their own and a negative value raises
    :class:`ValueError`.  ``count``, ``total`` (summed in observation
    order), ``min`` and ``max`` are exact.

    :meth:`quantile` interpolates linearly between the order statistics at
    rank ``q·(n-1)``.  Rank 0 reads ``min``, rank ``n-1`` reads ``max`` and
    every other rank reads its bucket's representative clamped to
    ``[min, max]``, so each estimate is within α of the exact interpolated
    percentile and sets of one or two samples are exact.
    """

    __slots__ = ("count", "total", "min", "max", "_zeros", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = inf
        self.max = -inf
        self._zeros = 0
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        if value > 0.0:
            index = ceil(log(value) / _LOG_GAMMA)
            buckets = self._buckets
            buckets[index] = buckets.get(index, 0) + 1
        elif value == 0.0:
            self._zeros += 1
        else:
            raise ValueError(f"histogram values must be non-negative, got {value!r}")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Add every observation of ``other`` to this histogram."""
        self.count += other.count
        self.total += other.total
        self._zeros += other._zeros
        buckets = self._buckets
        for index, count in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def copy(self) -> "Histogram":
        clone = Histogram()
        clone.merge(self)
        return clone

    def __sub__(self, earlier: "Histogram") -> "Histogram":
        """The observations made since ``earlier``, a past copy of ``self``.

        Counts and the total subtract.  The region's own extremes are not
        recorded, so its ``min`` and ``max`` are the representatives of its
        lowest and highest non-empty buckets (0 for zeros).
        """
        delta = Histogram()
        delta.count = self.count - earlier.count
        delta.total = self.total - earlier.total
        delta._zeros = self._zeros - earlier._zeros
        for index in self._buckets.keys() | earlier._buckets.keys():
            left = self._buckets.get(index, 0) - earlier._buckets.get(index, 0)
            if left:
                delta._buckets[index] = left
        if delta._zeros < 0 or min(delta._buckets.values(), default=0) < 0:
            raise ValueError("earlier is not a past copy of this histogram")
        if delta.count:
            delta.min = 0.0 if delta._zeros else _representative(min(delta._buckets))
            delta.max = _representative(max(delta._buckets)) if delta._buckets else 0.0
        return delta

    def quantile(self, fraction: float) -> float:
        """The interpolated ``fraction`` quantile; 0.0 for an empty histogram."""
        if self.count == 0:
            return 0.0
        position = fraction * (self.count - 1)
        low = floor(position)
        weight = position - low
        below = self._order_statistic(low)
        above = self._order_statistic(min(low + 1, self.count - 1))
        return below * (1.0 - weight) + above * weight

    def _order_statistic(self, rank: int) -> float:
        if rank == 0:
            return self.min
        if rank == self.count - 1:
            return self.max
        seen = self._zeros
        if rank < seen:
            return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                break
        return min(max(_representative(index), self.min), self.max)

    def summary(self) -> HistogramSummary:
        if self.count == 0:
            return HistogramSummary()
        return HistogramSummary(
            count=self.count,
            total=self.total,
            min=self.min,
            max=self.max,
            mean=self.total / self.count,
            p50=self.quantile(0.50),
            p95=self.quantile(0.95),
            p99=self.quantile(0.99),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen registry state; subtractable to meter a region of work."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot minus ``earlier``: the counters and gauges whose
        value changed, with counter deltas and latest gauge values, and the
        histograms that gained observations, holding only those (see
        :meth:`Histogram.__sub__`).
        """
        counters = {
            key: value - earlier.counters.get(key, 0.0)
            for key, value in self.counters.items()
            if value != earlier.counters.get(key, 0.0)
        }
        gauges = {
            key: value
            for key, value in self.gauges.items()
            if earlier.gauges.get(key) != value
        }
        histograms: dict[str, Histogram] = {}
        for key, histogram in self.histograms.items():
            before = earlier.histograms.get(key)
            if before is None:
                histograms[key] = histogram
            elif histogram.count > before.count:
                histograms[key] = histogram - before
        return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe rendering (embedded in Chrome trace ``otherData``)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                key: histogram.summary().as_dict()
                for key, histogram in sorted(self.histograms.items())
            },
        }


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -------------------------------------------------------------- recording
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to the counter ``name{labels}`` (creating it at 0)."""
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name{labels}`` to its latest value."""
        with self._lock:
            self._gauges[metric_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into the histogram ``name{labels}``."""
        key = metric_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
            histogram.observe(value)

    def merge(self, name: str, histogram: Histogram, **labels: Any) -> None:
        """Add every observation of ``histogram`` to ``name{labels}``."""
        key = metric_key(name, labels)
        with self._lock:
            target = self._histograms.get(key)
            if target is None:
                target = self._histograms[key] = Histogram()
            target.merge(histogram)

    # --------------------------------------------------------------- reading
    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(metric_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._gauges.get(metric_key(name, labels), 0.0)

    def histogram_summary(self, name: str, **labels: Any) -> HistogramSummary:
        with self._lock:
            histogram = self._histograms.get(metric_key(name, labels))
            return histogram.summary() if histogram else HistogramSummary()

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    key: histogram.copy()
                    for key, histogram in self._histograms.items()
                },
            )

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # --------------------------------------------------------------- exports
    def to_bench_metrics(
        self,
        prefix: str = "",
        *,
        snapshot: MetricsSnapshot | None = None,
        gated: Iterable[str] = (),
    ) -> "dict[str, Metric]":
        """Export registry values as benchmark :class:`Metric` entries.

        Counters and gauges export their value; histograms export
        ``<key>.count`` plus (for second-valued names, i.e. names whose base
        ends in ``_seconds``) ``<key>.p50_ms``/``<key>.p95_ms``/``<key>.p99_ms``
        — for a diffed snapshot, the percentiles of the metered region.
        Everything defaults to informational — registry values are measurements, not
        gates — except keys listed in ``gated``, which carry the default
        regression threshold.
        """
        from repro.bench.result import Metric, informational

        snap = snapshot if snapshot is not None else self.snapshot()
        gated_keys = set(gated)

        def make(key: str, value: float, unit: str) -> "Metric":
            if key in gated_keys:
                return Metric(value, unit)
            return informational(value, unit)

        metrics: "dict[str, Metric]" = {}
        for key, value in sorted(snap.counters.items()):
            metrics[f"{prefix}{key}"] = make(key, value, "")
        for key, value in sorted(snap.gauges.items()):
            metrics[f"{prefix}{key}"] = make(key, value, "")
        for key, histogram in sorted(snap.histograms.items()):
            summary = histogram.summary()
            metrics[f"{prefix}{key}.count"] = make(key, float(summary.count), "")
            base_name, _ = split_metric_key(key)
            if base_name.endswith("_seconds"):
                metrics[f"{prefix}{key}.p50_ms"] = informational(
                    summary.p50 * 1e3, "ms"
                )
                metrics[f"{prefix}{key}.p95_ms"] = informational(
                    summary.p95 * 1e3, "ms"
                )
                metrics[f"{prefix}{key}.p99_ms"] = informational(
                    summary.p99 * 1e3, "ms"
                )
        return metrics

    def to_bench_result(
        self,
        name: str,
        *,
        prefix: str = "",
        figure: str | None = None,
        stage: str = "observability",
        tags: tuple[str, ...] = ("obs",),
        snapshot: MetricsSnapshot | None = None,
    ) -> "BenchResult":
        """Wrap :meth:`to_bench_metrics` into a ``BENCH_*.json``-able result."""
        from repro.bench.result import BenchResult

        return BenchResult(
            name=name,
            metrics=self.to_bench_metrics(prefix, snapshot=snapshot),
            figure=figure,
            stage=stage,
            tags=tags,
        )

    # -------------------------------------------------------------- rendering
    def render(self, snapshot: MetricsSnapshot | None = None) -> str:
        """Human-readable multi-section dump of the registry state."""
        snap = snapshot if snapshot is not None else self.snapshot()
        lines: list[str] = []
        if snap.counters:
            lines.append("counters:")
            for key, value in sorted(snap.counters.items()):
                lines.append(f"  {key:<48} {value:g}")
        if snap.gauges:
            lines.append("gauges:")
            for key, value in sorted(snap.gauges.items()):
                lines.append(f"  {key:<48} {value:g}")
        if snap.histograms:
            lines.append("histograms:")
            for key, histogram in sorted(snap.histograms.items()):
                summary = histogram.summary()
                lines.append(
                    f"  {key:<48} n={summary.count} mean={summary.mean:.6g} "
                    f"p50={summary.p50:.6g} p95={summary.p95:.6g} "
                    f"p99={summary.p99:.6g} max={summary.max:.6g}"
                )
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)


_GLOBAL_REGISTRY = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry instrumented components record into."""
    return _GLOBAL_REGISTRY
