"""Plain-text reporting helpers used by the benchmark harness.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep that formatting in one place.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.result import BenchResult
    from repro.unified.runtime import UnifiedRunResult

#: Directory (relative to the working directory) where benchmark modules drop
#: their paper-style tables; override with the ``REPRO_REPORT_DIR`` variable.
DEFAULT_REPORT_DIR = "reports"


def format_milliseconds(seconds: float) -> str:
    return f"{seconds * 1e3:.1f} ms"


def format_speedup(speedup: float) -> str:
    return f"{speedup:.2f}x"


def format_gib(num_bytes: float) -> str:
    return f"{num_bytes / 1024**3:.1f} GiB"


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"Row has {len(row)} cells but the table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def format_markdown_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render a GitHub-flavoured markdown table (used to build EXPERIMENTS.md)."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in str_rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def write_report(name: str, text: str, directory: str | os.PathLike | None = None) -> Path:
    """Persist a paper-style table/series under the reports directory.

    The benchmark harness both prints every table and writes it here so the
    regenerated rows survive pytest's output capturing.
    """
    base = Path(directory or os.environ.get("REPRO_REPORT_DIR", DEFAULT_REPORT_DIR))
    base.mkdir(parents=True, exist_ok=True)
    path = base / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def render_bench_result(result: "BenchResult") -> str:
    """Render a structured :class:`~repro.bench.result.BenchResult` as a table.

    This is the human-readable view of the same data serialized to
    ``BENCH_<name>.json`` — the benchmark runner writes both, so the tables
    under ``reports/`` and the machine-readable results can never diverge.
    """
    rows = []
    for name in sorted(result.metrics):
        metric = result.metrics[name]
        if metric.regression_threshold is None:
            gate = "info"
        else:
            gate = f"±{metric.regression_threshold * 100:.0f}%"
        rows.append(
            [
                name,
                f"{metric.value:.4g}",
                metric.unit,
                "higher" if metric.higher_is_better else "lower",
                gate,
            ]
        )
    title = f"BENCH {result.name}"
    if result.stage:
        title += f" [{result.stage}]"
    if result.workloads:
        title += f" ({', '.join(result.workloads)})"
    return format_table(["metric", "value", "unit", "better", "gate"], rows, title=title)


def render_elastic_result(result: "UnifiedRunResult") -> str:
    """Render an elastic run as paper-style tables (events, then totals).

    Deliberately built only from the run's *deterministic* quantities (the
    charged replan model, the migration cost model, simulated iteration
    times), so identical seeds render byte-identical text — the reproduction
    contract of ``repro elastic``.
    """
    event_rows = []
    for outcome in result.outcomes:
        labels = ", ".join(event.describe() for event in outcome.cluster_events)
        if outcome.replanned:
            action = "replan (forced)" if outcome.forced else "replan"
            if outcome.replan is not None and outcome.replan.cache_hit:
                action += " [cache hit]"
        else:
            action = "keep plan"
        replan_s = outcome.replan.charged_seconds if outcome.replan else 0.0
        migration = outcome.migration
        event_rows.append(
            [
                outcome.iteration,
                labels,
                outcome.num_devices,
                action,
                f"{replan_s * 1e3:.1f} ms",
                format_gib(migration.total_bytes) if migration else "-",
                f"{migration.total_seconds * 1e3:.1f} ms" if migration else "-",
                f"{outcome.stay_slowdown:.2f}x"
                if not outcome.replanned
                else "-",
            ]
        )
    events_table = format_table(
        [
            "iter",
            "events",
            "#GPUs",
            "action",
            "replan",
            "migrated",
            "migration",
            "degraded",
        ],
        event_rows,
        title=f"elastic events ({result.scenario_name}, policy={result.policy})",
    )
    totals = format_table(
        ["metric", "value"],
        [
            ["iterations", result.total_iterations],
            ["no-failure run", f"{result.baseline_seconds:.2f} s"],
            ["elastic training time", f"{result.training_seconds:.2f} s"],
            ["replan + migration overhead", f"{result.overhead_seconds:.3f} s"],
            ["elastic total", f"{result.total_seconds:.2f} s"],
            ["cumulative slowdown", f"{result.cumulative_slowdown:.3f}x"],
            ["replans", result.replan_count],
            ["plan-cache hits", result.cache_hits],
            ["migrated state", format_gib(result.migration_bytes)],
            ["migration time", f"{result.migration_seconds:.3f} s"],
        ],
        title="elastic run summary",
    )
    return events_table + "\n\n" + totals


def format_series(
    points: Sequence[tuple[float, float]],
    x_label: str = "x",
    y_label: str = "y",
    max_points: int = 20,
) -> str:
    """Render a (sub-sampled) numeric series as rows (used for Fig. 9/13 curves)."""
    if not points:
        return f"{x_label}: (empty series)"
    step = max(1, len(points) // max_points)
    sampled = list(points)[::step]
    rows = [(f"{x:.4g}", f"{y:.4g}") for x, y in sampled]
    return format_table([x_label, y_label], rows)
