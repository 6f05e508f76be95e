"""Per-tenant SLO tracking over a sliding window of request outcomes.

The plan service reports every resolved request to an :class:`SloTracker`
(outcome, latency, tenant, topology, tier).  The tracker keeps bounded
sliding windows — globally, per tenant and per topology — and folds each
into an :class:`SloReport`: p50/p95/p99 latency, availability, shed /
degraded / error rates, and error-budget burn against the declared
:class:`SloPolicy` targets.  A window is a ``deque(maxlen=window)`` of
samples, which is already bounded and slides exactly; its percentiles come
from a :class:`~repro.obs.metrics.Histogram` of the window's successful
latencies, like every other percentile in the package.

Availability counts served *and* degraded responses as successes (a
degraded plan is still a plan; the degraded *rate* is tracked separately
against its own target).  Error-budget burn is the ratio of observed
unavailability to the policy's allowance: burn < 1 means the window is
inside budget, burn = 2 means failing twice as fast as the budget permits.

Reports export two ways: :meth:`SloTracker.to_bench_metrics` (flat floats
for the benchmark harness) and :meth:`SloTracker.render_prometheus`
(text exposition for scrape-style consumption).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Tuple

from .metrics import Histogram

#: Outcomes mirroring ``repro.service.resilience`` (kept as literals so the
#: obs layer stays import-free of the service layer).
_SUCCESS_OUTCOMES = frozenset({"served", "degraded"})


@dataclass(frozen=True)
class SloPolicy:
    """Declared service-level objectives for a sliding window."""

    #: Latency targets, in seconds (``None`` disables the objective).
    p95_latency_seconds: float | None = None
    p99_latency_seconds: float | None = None
    #: Fraction of requests that must succeed (served or degraded).
    availability_target: float = 0.999
    #: Ceilings on the shed / degraded fractions (``None`` disables).
    max_shed_rate: float | None = None
    max_degraded_rate: float | None = None

    def error_budget(self) -> float:
        """Allowed unavailable fraction (0 when the target is 100%)."""
        return max(0.0, 1.0 - self.availability_target)


#: A recorded sample: (outcome, latency_seconds).
_Sample = Tuple[str, float]


@dataclass(frozen=True)
class SloReport:
    """One window's observed service levels versus policy."""

    scope: str
    count: int
    availability: float
    p50_latency_seconds: float
    p95_latency_seconds: float
    p99_latency_seconds: float
    shed_rate: float
    degraded_rate: float
    error_rate: float
    #: Unavailability / error budget; ``0.0`` when the budget is infinite
    #: (availability target of 0) or the window is empty.
    error_budget_burn: float
    #: Whether every enabled objective is met in this window.
    compliant: bool

    def as_dict(self) -> dict:
        return {
            "scope": self.scope,
            "count": self.count,
            "availability": self.availability,
            "p50_latency_seconds": self.p50_latency_seconds,
            "p95_latency_seconds": self.p95_latency_seconds,
            "p99_latency_seconds": self.p99_latency_seconds,
            "shed_rate": self.shed_rate,
            "degraded_rate": self.degraded_rate,
            "error_rate": self.error_rate,
            "error_budget_burn": self.error_budget_burn,
            "compliant": self.compliant,
        }


def _fold(scope: str, samples: Iterable[_Sample], policy: SloPolicy) -> SloReport:
    outcomes = []
    latencies = Histogram()
    for outcome, latency in samples:
        outcomes.append(outcome)
        if outcome in _SUCCESS_OUTCOMES:
            latencies.observe(latency)
    count = len(outcomes)
    # An empty window is fully available, with every rate and percentile 0.
    availability = latencies.count / count if count else 1.0
    shed_rate = outcomes.count("shed") / max(count, 1)
    degraded_rate = outcomes.count("degraded") / max(count, 1)
    error_rate = outcomes.count("error") / max(count, 1)
    summary = latencies.summary()
    p50, p95, p99 = summary.p50, summary.p95, summary.p99
    budget = policy.error_budget()
    unavailability = 1.0 - availability
    if budget > 0.0:
        burn = unavailability / budget
    else:
        burn = 0.0 if unavailability == 0.0 else float("inf")
    compliant = availability >= availability_floor(policy)
    if policy.p95_latency_seconds is not None and p95 > policy.p95_latency_seconds:
        compliant = False
    if policy.p99_latency_seconds is not None and p99 > policy.p99_latency_seconds:
        compliant = False
    if policy.max_shed_rate is not None and shed_rate > policy.max_shed_rate:
        compliant = False
    if (
        policy.max_degraded_rate is not None
        and degraded_rate > policy.max_degraded_rate
    ):
        compliant = False
    return SloReport(
        scope=scope,
        count=count,
        availability=availability,
        p50_latency_seconds=p50,
        p95_latency_seconds=p95,
        p99_latency_seconds=p99,
        shed_rate=shed_rate,
        degraded_rate=degraded_rate,
        error_rate=error_rate,
        error_budget_burn=burn,
        compliant=compliant,
    )


def availability_floor(policy: SloPolicy) -> float:
    return min(1.0, max(0.0, policy.availability_target))


class SloTracker:
    """Sliding-window SLO accounting, globally and per tenant/topology.

    Thread-safe enough for the plan service's usage: ``record`` is called
    from worker threads but appends to ``deque`` objects (atomic in
    CPython); reports snapshot via ``list(...)``.
    """

    GLOBAL_SCOPE = "_global"

    def __init__(self, policy: SloPolicy | None = None, window: int = 1024) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.policy = policy or SloPolicy()
        self.window = window
        self._global: Deque[_Sample] = deque(maxlen=window)
        self._tenants: dict[str, Deque[_Sample]] = {}
        self._topologies: dict[str, Deque[_Sample]] = {}

    # ------------------------------------------------------------- recording
    def record(
        self,
        outcome: str,
        latency_seconds: float,
        *,
        tenant: str | None = None,
        topology: str | None = None,
    ) -> None:
        sample = (outcome, latency_seconds)
        self._global.append(sample)
        if tenant is not None:
            bucket = self._tenants.get(tenant)
            if bucket is None:
                bucket = self._tenants.setdefault(
                    tenant, deque(maxlen=self.window)
                )
            bucket.append(sample)
        if topology is not None:
            bucket = self._topologies.get(topology)
            if bucket is None:
                bucket = self._topologies.setdefault(
                    topology, deque(maxlen=self.window)
                )
            bucket.append(sample)

    # --------------------------------------------------------------- reports
    def report(self) -> SloReport:
        return _fold(self.GLOBAL_SCOPE, list(self._global), self.policy)

    def tenant_reports(self) -> dict[str, SloReport]:
        return {
            tenant: _fold(f"tenant:{tenant}", list(samples), self.policy)
            for tenant, samples in sorted(self._tenants.items())
        }

    def topology_reports(self) -> dict[str, SloReport]:
        return {
            topology: _fold(f"topology:{topology}", list(samples), self.policy)
            for topology, samples in sorted(self._topologies.items())
        }

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    # --------------------------------------------------------------- exports
    def to_bench_metrics(self, prefix: str = "slo") -> dict[str, float]:
        """Flat float metrics for the benchmark harness (ms latencies)."""
        out: dict[str, float] = {}

        def put(scope: str, report: SloReport) -> None:
            base = f"{prefix}.{scope}" if scope else prefix
            out[f"{base}.count"] = float(report.count)
            out[f"{base}.availability"] = report.availability
            out[f"{base}.p50_ms"] = report.p50_latency_seconds * 1000.0
            out[f"{base}.p95_ms"] = report.p95_latency_seconds * 1000.0
            out[f"{base}.p99_ms"] = report.p99_latency_seconds * 1000.0
            out[f"{base}.shed_rate"] = report.shed_rate
            out[f"{base}.degraded_rate"] = report.degraded_rate
            out[f"{base}.error_rate"] = report.error_rate
            burn = report.error_budget_burn
            out[f"{base}.error_budget_burn"] = (
                burn if burn != float("inf") else -1.0
            )

        put("", self.report())
        for tenant, report in self.tenant_reports().items():
            put(f"tenant.{tenant}", report)
        return out

    def render(self) -> str:
        """Human-readable per-tenant table (global row first)."""
        headers = (
            "scope",
            "count",
            "avail",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "shed",
            "degraded",
            "burn",
            "ok",
        )
        rows = [self.report()]
        rows.extend(self.tenant_reports().values())
        rows.extend(self.topology_reports().values())
        table = [headers]
        for report in rows:
            burn = report.error_budget_burn
            table.append(
                (
                    report.scope,
                    str(report.count),
                    f"{report.availability:.4f}",
                    f"{report.p50_latency_seconds * 1000.0:.2f}",
                    f"{report.p95_latency_seconds * 1000.0:.2f}",
                    f"{report.p99_latency_seconds * 1000.0:.2f}",
                    f"{report.shed_rate:.3f}",
                    f"{report.degraded_rate:.3f}",
                    "inf" if burn == float("inf") else f"{burn:.2f}",
                    "yes" if report.compliant else "NO",
                )
            )
        widths = [
            max(len(row[col]) for row in table) for col in range(len(headers))
        ]
        lines = []
        for index, row in enumerate(table):
            lines.append(
                "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row))
                .rstrip()
            )
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def render_prometheus(self, prefix: str = "repro_slo") -> str:
        """Prometheus-style text exposition of the current window."""
        gauges = (
            ("availability", "Fraction of requests served or degraded"),
            ("latency_p50_seconds", "Median success latency"),
            ("latency_p95_seconds", "95th percentile success latency"),
            ("latency_p99_seconds", "99th percentile success latency"),
            ("shed_rate", "Fraction of requests shed by admission control"),
            ("degraded_rate", "Fraction of requests served degraded"),
            ("error_rate", "Fraction of requests that errored"),
            ("error_budget_burn", "Unavailability over the error budget"),
            ("requests_total", "Requests in the sliding window"),
        )
        scopes: list[tuple[str, str, SloReport]] = [
            ("", "", self.report())
        ]
        for tenant, report in self.tenant_reports().items():
            scopes.append(("tenant", tenant, report))
        for topology, report in self.topology_reports().items():
            scopes.append(("topology", topology, report))
        lines: list[str] = []
        for name, help_text in gauges:
            metric = f"{prefix}_{name}"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} gauge")
            for label, value, report in scopes:
                if name == "availability":
                    sample = report.availability
                elif name == "latency_p50_seconds":
                    sample = report.p50_latency_seconds
                elif name == "latency_p95_seconds":
                    sample = report.p95_latency_seconds
                elif name == "latency_p99_seconds":
                    sample = report.p99_latency_seconds
                elif name == "shed_rate":
                    sample = report.shed_rate
                elif name == "degraded_rate":
                    sample = report.degraded_rate
                elif name == "error_rate":
                    sample = report.error_rate
                elif name == "error_budget_burn":
                    sample = report.error_budget_burn
                    if sample == float("inf"):
                        sample = -1.0
                else:
                    sample = float(report.count)
                labels = f'{{{label}="{value}"}}' if label else ""
                lines.append(f"{metric}{labels} {sample:.6g}")
        return "\n".join(lines) + "\n"


def slo_from_outcomes(
    outcomes: Iterable[tuple[str, str | None]],
    policy: SloPolicy | None = None,
    window: int = 4096,
) -> SloTracker:
    """Build a tracker from (outcome, tenant) pairs with zero latencies.

    Used by ``repro obs slo --input`` to compute availability / shed /
    degraded rates from a journal, where latency is out-of-band.
    """
    tracker = SloTracker(policy, window=window)
    for outcome, tenant in outcomes:
        tracker.record(outcome, 0.0, tenant=tenant)
    return tracker
