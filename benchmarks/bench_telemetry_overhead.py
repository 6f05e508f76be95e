"""Request-scoped telemetry overhead on the plan service hot path.

Runs the shared :func:`~repro.experiments.harness.run_service_benchmark`
protocol twice on the same request stream — once bare, once with the full
telemetry stack attached (a :class:`~repro.obs.TelemetryJournal`, an
:class:`~repro.obs.SloTracker` and per-request tenant labels) — and gates
the ratio of the two service wall-clock times.  Journaling a request is a
handful of dict writes under a lock, so the instrumented run must stay
within 5% of the bare one (the committed baseline holds the measured
ratio; the gate is the drift against it).

The ratio is the median of per-pair ratios over ``PAIRS`` pairs, each pair
running the two sides back to back, alternating which runs first, so a slow
stretch of the host lands on both sides of a pair instead of on one side's
minimum.  The correctness side rides along as hard invariants: the journal
must account for every request (submitted *and* resolved), never drop an
event, and the SLO window must have recorded exactly one sample per request.
"""

from statistics import median

from bench_utils import emit, paired_ratio_median

from repro.bench import Metric, informational, invariant, register_benchmark
from repro.experiments.harness import run_service_benchmark
from repro.experiments.reporting import format_table
from repro.experiments.workloads import clip_workload
from repro.obs import SloTracker, TelemetryJournal, attribution_report

NUM_REQUESTS = 96
NUM_UNIQUE = 6
NUM_TENANTS = 3
PAIRS = 11


@register_benchmark(
    "telemetry_overhead",
    figure=None,
    stage="service",
    tags=("service", "obs", "smoke"),
    description="Telemetry (journal + SLO tracking) overhead on the plan service",
)
def bench_telemetry_overhead(ctx):
    workload = clip_workload(4, 8)
    ctx.tasks(workload)  # record the workload fingerprint for the result

    def bare():
        result = run_service_benchmark(
            workload, num_requests=NUM_REQUESTS, num_unique=NUM_UNIQUE
        )
        return result.service_seconds, None

    def instrumented():
        journal = TelemetryJournal()
        slo = SloTracker()
        result = run_service_benchmark(
            workload,
            num_requests=NUM_REQUESTS,
            num_unique=NUM_UNIQUE,
            journal=journal,
            slo=slo,
            num_tenants=NUM_TENANTS,
        )
        return result.service_seconds, (journal, slo)

    timing = paired_ratio_median(bare, instrumented, PAIRS)
    journal, slo = timing.second
    median_bare = median(timing.first_seconds)
    median_instrumented = median(timing.second_seconds)
    overhead = timing.ratio

    report = attribution_report(journal.events())
    emit(
        "telemetry_overhead",
        format_table(
            ["metric", "value"],
            [
                ["bare service", f"{median_bare * 1e3:.2f} ms"],
                ["instrumented service", f"{median_instrumented * 1e3:.2f} ms"],
                ["overhead", f"{overhead:.3f}x"],
                ["journal events", str(report["events"])],
                [
                    "lifecycles",
                    f"{report['complete']}/{report['requests']} complete",
                ],
            ],
            title=f"telemetry overhead, {workload.describe()}",
        ),
    )

    slo_report = slo.report()
    return {
        # The tentpole gate: instrumented wall-clock over bare wall-clock.
        # Gated at 5% drift against the committed baseline (~1.0).
        "overhead_ratio": Metric(
            value=overhead, unit="x", regression_threshold=0.05
        ),
        # Every submitted request must open and close a journal lifecycle,
        # with nothing dropped and exactly one SLO sample per request.
        "journaled_requests": invariant(float(report["requests"]), "req"),
        "attribution_complete_rate": invariant(
            report["complete"] / report["requests"] if report["requests"] else 0.0,
            "fraction",
        ),
        "journal_dropped": invariant(float(journal.dropped), ""),
        "slo_samples": invariant(float(slo_report.count), "req"),
        "slo_availability": invariant(slo_report.availability, "fraction"),
        "bare_seconds": informational(median_bare, "s"),
        "instrumented_seconds": informational(median_instrumented, "s"),
        "journal_events": informational(float(report["events"]), ""),
    }
