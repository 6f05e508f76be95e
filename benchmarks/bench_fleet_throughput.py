"""Fleet throughput: a live serving fleet against an uncached reference.

Replays a request stream at 10x the ``bench_service_throughput`` volume
through :func:`~repro.experiments.load_replay.run_load_replay`: a live
:class:`~repro.service.fleet.PlanServiceFleet` serves the stream under
multi-threaded closed clients, and every unique payload is verified
byte-identical (canonically) against an uncached single-planner reference.

The gated metrics are the payload audit, the failure count and the number
of unique fingerprints, which hold on any machine.  Throughput, the
reference solve time and the SLO latency percentiles are wall-clock and
informational; the SLO tracker sees the live requests and nothing else.
"""

import pytest

from bench_utils import emit

from repro.bench import Metric, informational, invariant, register_benchmark
from repro.experiments.load_replay import run_load_replay
from repro.experiments.reporting import format_table
from repro.experiments.workloads import clip_workload
from repro.obs.slo import SloTracker

WORKLOAD = clip_workload(10, 16)
NUM_REQUESTS = 400  # 10x bench_service_throughput's 40-request stream
NUM_UNIQUE = 48
SEED = 7


def _campaign(num_requests: int = NUM_REQUESTS, slo: SloTracker | None = None):
    return run_load_replay(
        WORKLOAD,
        num_requests=num_requests,
        num_unique=NUM_UNIQUE,
        seed=SEED,
        slo=slo,
    )


@register_benchmark(
    "fleet_throughput",
    figure=None,
    stage="service",
    tags=("service", "fleet", "throughput", "smoke"),
    description="Plan-service fleet replay with a byte-identity payload audit",
)
def bench_fleet_throughput(ctx):
    ctx.tasks(WORKLOAD)  # record the workload fingerprint for the result
    slo = SloTracker()
    result = _campaign(slo=slo)
    slo_report = slo.report()
    return {
        "payload_match_rate": invariant(result.payload_match_rate, "fraction"),
        "failed_requests": Metric(
            float(result.failed_requests), "req", regression_threshold=0.0
        ),
        "unique_fingerprints": invariant(float(result.num_unique), "fp"),
        # Wall-clock, machine-dependent, informational.
        "real_throughput_rps": informational(result.real_rps, "req/s"),
        "reference_solve_ms": informational(result.reference_solve_ms, "ms"),
        "slo_p50_ms": informational(slo_report.p50_latency_seconds * 1000.0, "ms"),
        "slo_p95_ms": informational(slo_report.p95_latency_seconds * 1000.0, "ms"),
        "slo_p99_ms": informational(slo_report.p99_latency_seconds * 1000.0, "ms"),
    }


@pytest.mark.parametrize("num_requests", [NUM_REQUESTS], ids=["replay"])
def test_fleet_throughput(num_requests):
    slo = SloTracker()
    result = _campaign(num_requests=num_requests, slo=slo)
    emit(
        "fleet_throughput",
        format_table(
            ["metric", "value"],
            result.as_rows(),
            title=f"plan-service fleet replay ({WORKLOAD.describe()})",
        ),
    )
    # Acceptance: every served payload byte-identical to the reference, no
    # failures, and SLO figures that describe the live requests alone.
    assert result.failed_requests == 0
    assert result.payload_match_rate == 1.0
    assert result.num_requests >= 10 * 40
    assert slo.report().count == result.num_requests
