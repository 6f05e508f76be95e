"""Plan-service throughput: cached/deduplicated serving vs the raw planner.

Replays a synthetic planning-request stream — the overlapping, repetitive
pattern of dynamic workloads and of a multi-tenant planning tier — against the
:class:`~repro.service.server.PlanService` and against one uncached
``ExecutionPlanner.plan()`` call per request (the shared
:func:`~repro.experiments.harness.run_service_benchmark` protocol behind
``repro serve-bench``), and reports throughput, cache hit rate and the
speedup.  The stream has >= 50% repeated workloads; the service must beat the
uncached planner by at least 5x on it, in the median of five runs (one run
takes ~0.25 s and its speedup alone swings with host noise).
"""

import statistics

import pytest

from bench_utils import emit

from repro.bench import Metric, informational, register_benchmark
from repro.experiments.harness import run_service_benchmark
from repro.experiments.reporting import format_table
from repro.experiments.workloads import clip_workload, ofasys_workload


@register_benchmark(
    "service_throughput",
    figure=None,
    stage="service",
    tags=("service", "throughput", "smoke"),
    description="Caching plan service vs the uncached planner on a request stream",
)
def bench_service_throughput(ctx):
    workload = clip_workload(10, 16)
    ctx.tasks(workload)  # record the workload fingerprint for the result
    result = run_service_benchmark(
        workload, num_requests=40, num_unique=4, num_workers=4
    )
    metrics = {
        "failed_requests": Metric(
            float(result.failed_requests), "req", regression_threshold=0.0
        ),
        "repeated_fraction": Metric(
            result.repeated_fraction, "fraction", higher_is_better=True
        ),
        # The speedup over the uncached planner is wall-clock and varies with
        # the machine and thread scheduling, so it is informational.
        "service_speedup": informational(result.speedup, "x"),
    }
    metrics.update(result.stats.to_metrics())
    return metrics


@pytest.mark.parametrize(
    "label,workload,num_requests,num_unique",
    [
        ("multitask-clip", clip_workload(10, 16), 40, 4),
        ("ofasys", ofasys_workload(7, 16), 40, 4),
    ],
    ids=["multitask-clip", "ofasys"],
)
def test_service_throughput(benchmark, label, workload, num_requests, num_unique):
    def run():
        return run_service_benchmark(
            workload, num_requests=num_requests, num_unique=num_unique, num_workers=4
        )

    # One pytest-benchmark timing: the full protocol (uncached reference plus
    # the service run) on the same stream.  It is the first of five runs.
    results = [benchmark.pedantic(run, rounds=1, iterations=1)]
    results += [run() for _ in range(4)]
    result = results[0]

    emit(
        f"service_throughput_{label}",
        format_table(
            ["metric", "value"],
            result.as_rows(),
            title=f"plan service throughput ({label}, {workload.describe()})",
        ),
    )

    # Acceptance: >= 50% repeats in the stream, >= 5x over the raw planner.
    for each in results:
        assert each.failed_requests == 0
        assert each.repeated_fraction >= 0.5
        assert each.stats.hit_rate >= 0.5
    speedups = [each.speedup for each in results]
    assert statistics.median(speedups) >= 5.0, (
        "plan service only {:.1f}x faster than the uncached planner "
        "(median of {})".format(
            statistics.median(speedups), ", ".join(f"{x:.1f}x" for x in speedups)
        )
    )
