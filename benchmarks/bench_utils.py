"""Shared helpers for the benchmark harness.

Every ``bench_fig*.py`` module regenerates one table or figure of the paper's
evaluation: it runs the relevant systems on the relevant workloads, prints the
same rows/series the paper reports, writes them under ``reports/`` (so they
survive pytest's output capturing), and registers one pytest-benchmark timing
for the piece of the pipeline the figure is about.

Each module additionally registers a machine-readable benchmark into the
:mod:`repro.bench` registry via :func:`repro.bench.register_benchmark`: a
function ``(ctx) -> dict[str, Metric]`` the ``repro bench run`` CLI executes
to emit structured ``BENCH_<name>.json`` results CI gates on.  The helpers
here translate the harness's comparison objects into that metric schema.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Callable, NamedTuple, Sequence

from repro.bench import Metric
from repro.experiments.harness import ComparisonResult, run_comparison
from repro.experiments.reporting import format_table, write_report
from repro.experiments.workloads import WorkloadSpec

#: Systems of the Fig. 8 comparison, in the paper's plotting order.
FIG8_SYSTEMS = ("spindle", "spindle-optimus", "distmm-mt", "megatron-lm", "deepspeed")


def speedup_rows(comparison: ComparisonResult) -> list[list[str]]:
    """Rows of (system, iteration time, speedup over DeepSpeed)."""
    rows = []
    for name, result in comparison.results.items():
        rows.append(
            [
                name,
                f"{result.iteration_time * 1e3:8.1f} ms",
                f"{comparison.speedup(name):.2f}x",
            ]
        )
    return rows


def comparison_table(comparison: ComparisonResult, title: str) -> str:
    return format_table(
        ["system", "iteration time", "speedup vs DeepSpeed"],
        speedup_rows(comparison),
        title=title,
    )


def comparison_metrics(
    comparison: ComparisonResult,
    prefix: str = "",
    systems: Sequence[str] | None = None,
) -> dict[str, Metric]:
    """Iteration time and speedup of each system as gated benchmark metrics.

    All values come from the deterministic simulated substrate, so the default
    regression threshold applies: a PR that slows a system's simulated
    iteration (or erodes Spindle's speedup) past the threshold fails the gate.
    """
    metrics: dict[str, Metric] = {}
    for name in systems if systems is not None else comparison.results:
        result = comparison.results[name]
        metrics[f"{prefix}{name}_iteration_ms"] = Metric(
            result.iteration_time * 1e3, "ms"
        )
        metrics[f"{prefix}{name}_speedup"] = Metric(
            comparison.speedup(name), "x", higher_is_better=True
        )
    return metrics


def emit(report_name: str, text: str) -> None:
    """Print a paper-style table and persist it under ``reports/``."""
    print("\n" + text)
    write_report(report_name, text)


def cached_comparison(
    ctx,
    workload: WorkloadSpec,
    systems: Sequence[str] = FIG8_SYSTEMS,
) -> ComparisonResult:
    """Run a comparison through a bench context's shared workload cache."""
    return run_comparison(
        workload,
        systems=systems,
        tasks=ctx.tasks(workload),
        cluster=ctx.cluster(workload),
    )


def run_grid(
    workloads: Sequence[WorkloadSpec],
    systems: Sequence[str] = FIG8_SYSTEMS,
) -> dict[str, ComparisonResult]:
    """Run a comparison for every workload of a figure's grid."""
    return {
        workload.name: run_comparison(workload, systems=systems)
        for workload in workloads
    }


class PairedRatio(NamedTuple):
    """Timings of two sides measured by :func:`paired_ratio_median`."""

    #: Median of the per-pair ``second / first`` seconds ratios.
    ratio: float
    first_seconds: list[float]
    second_seconds: list[float]
    #: The payload of each side's last run.
    first: Any
    second: Any


def paired_ratio_median(
    first: Callable[[], tuple[float, Any]],
    second: Callable[[], tuple[float, Any]],
    pairs: int,
) -> PairedRatio:
    """Time two sides in ``pairs`` back-to-back pairs, alternating which runs first.

    Each side returns ``(seconds, payload)``.  A slow stretch of the host lands
    on both sides of a pair, so the median of the per-pair ratios is steadier
    than a ratio of per-side minima.
    """
    sides = (first, second)
    seconds: tuple[list[float], list[float]] = ([], [])
    payloads: list[Any] = [None, None]
    ratios = []
    for index in range(pairs):
        for side in (0, 1) if index % 2 == 0 else (1, 0):
            elapsed, payloads[side] = sides[side]()
            seconds[side].append(elapsed)
        ratios.append(seconds[1][-1] / max(seconds[0][-1], 1e-9))
    return PairedRatio(median(ratios), seconds[0], seconds[1], payloads[0], payloads[1])
