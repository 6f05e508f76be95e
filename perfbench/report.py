"""Turn timed passes into the end-to-end and per-layer metrics, and print them."""

from __future__ import annotations

import gc
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import layers, stats
from perfbench.workloads import (
    SETUP_REPEATS,
    WORKLOADS,
    Checked,
    Pass,
    Workload,
    timed_setup,
    traced_pass,
)

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit), in print order.
    metrics: dict[str, tuple[float, str]]
    table: list[str] = field(default_factory=list)

    def document(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _failures(timed: Pass, checked: Checked) -> dict[int, str]:
    return {**checked.failures, **timed.failures}


def _failure_lines(failures: dict[int, str]) -> list[str]:
    return [f"  op {index} failed: {reason}" for index, reason in sorted(failures.items())[:10]]


def tail(latencies: list[float]) -> tuple[int, float]:
    """The tail percentile (at most p99) and its latency in seconds."""
    ordered = sorted(latencies)
    q = min(99, stats.tail_percentile(len(ordered)))
    return q, stats.nearest_rank(ordered, q)


def measure(name: str, seed: int, seconds: float) -> Result:
    """Untraced run: median set-up, one timed pass, output checks."""
    workload = WORKLOADS[name]
    num_ops = workload.num_ops(seconds)
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
            state = None
        # Every set-up starts from a collected heap, not the last one's garbage.
        gc.collect()
        state, elapsed = timed_setup(workload, seed, num_ops, None)
        setups.append(elapsed)
    try:
        timed = workload.run_ops(state, None)
        checked = workload.check(state, timed)
    finally:
        workload.close(state)

    failures = _failures(timed, checked)
    q, tail_seconds = tail(timed.latencies)
    error_rate = len(failures) / num_ops
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (num_ops / timed.wall, "ops/s"),
        "latency_p50_ms": (statistics.median(timed.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_seconds * 1e3, "ms"),
        "success_rate": (1.0 - error_rate, "ratio"),
        "peak_rss_mb": (timed.peak_rss_mb, "MB"),
        "sim_iteration_ms": (checked.sim_iteration_ms, "ms"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "latency_tail_ms": f"p{q} of {num_ops} ops, {stats.ops_beyond(num_ops, q)} beyond",
        "success_rate": "1 - error_rate, the form BENCHMARK.json bounds",
    }
    rows = dict(metrics)
    rows["error_rate"] = (error_rate, "ratio")
    notes["error_rate"] = f"{len(failures)} of {num_ops} ops failed"
    table = [f"{name} seed={seed} ops={num_ops} clients={workload.clients}"]
    for metric, (value, unit) in rows.items():
        note = notes.get(metric, "")
        table.append(f"  {metric:<18} {value:>14.4f} {unit:<6} {note}".rstrip())
    table.extend(f"  {line}" for line in checked.notes)
    table.extend(_failure_lines(failures))
    return Result(not failures, num_ops, len(failures), metrics, table)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    workload: Workload, log: layers.SpanLog, timed: Pass, ledger: layers.LayerLedger
) -> dict[str, tuple[float, str]]:
    ops = ledger.ops
    metrics: dict[str, tuple[float, str]] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_ms"] = (ledger.self_seconds.get(layer, 0.0) / ops * 1e3, "ms")
        metrics[f"{layer}.calls"] = (ledger.calls.get(layer, 0) / ops, "calls/op")
    responses = workload.responses(timed.outputs)
    counters = log.counters
    metrics.update(
        {
            "frontend.retries": (
                float(sum(max(r.attempts - 1, 0) for r in responses)),
                "count",
            ),
            "frontend.not_served": (
                float(sum(1 for r in responses if r.outcome != "served")),
                "count",
            ),
            "cache.hit_ratio": (
                _ratio(counters["cache.hits"], counters["cache.gets"]),
                "ratio",
            ),
            "queue.wait_ms": (
                _ratio(sum(ledger.queue_waits), len(ledger.queue_waits)) * 1e3,
                "ms",
            ),
            "estimation.curve_reuse_ratio": (
                _ratio(counters["estimation.reused"], counters["estimation.curves"]),
                "ratio",
            ),
            "plandiff.levels_reused_ratio": (
                _ratio(counters["plandiff.reused"], counters["plandiff.levels"]),
                "ratio",
            ),
            "other.ms": (ledger.self_seconds.get(layers.ROOT_LAYER, 0.0) / ops * 1e3, "ms"),
            "trace.clipped_ms": (ledger.clipped_seconds / ops * 1e3, "ms"),
        }
    )
    return metrics


def write_spans(log: layers.SpanLog, path: Path) -> None:
    """One JSON array per span: op, id, parent, layer, name, start and
    duration in microseconds from the first span."""
    origin = min((span.start for span in log.spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for span in log.spans:
            out.write(
                json.dumps(
                    [
                        span.op,
                        span.span_id,
                        span.parent,
                        span.layer,
                        span.name,
                        round((span.start - origin) * 1e6, 3),
                        round((span.end - span.start) * 1e6, 3),
                    ]
                )
            )
            out.write("\n")


def _untraced_pass(workload: Workload, seed: int, num_ops: int) -> Pass:
    state, _ = timed_setup(workload, seed, num_ops, None)
    try:
        return workload.run_ops(state, None)
    finally:
        workload.close(state)


def measure_layers(name: str, seed: int, seconds: float) -> Result:
    """Traced run: an untraced pass for the overhead base, then a traced one."""
    workload = WORKLOADS[name]
    num_ops = workload.num_ops(seconds)
    untraced = _untraced_pass(workload, seed, num_ops)
    log, timed, checked = traced_pass(workload, seed, num_ops)

    ledger = layers.ledger(log, dict(enumerate(timed.latencies)))
    metrics = layer_metrics(workload, log, timed, ledger)
    # untraced ops/s over traced ops/s, over the same op sequence
    metrics["trace.overhead_ratio"] = (timed.wall / untraced.wall, "ratio")
    spans_path = OUT_DIR / f"{name}-seed{seed}-spans.jsonl"
    write_spans(log, spans_path)

    failures = _failures(timed, checked)
    table = [
        f"{name} seed={seed} ops={num_ops} traced, {len(log.spans)} spans in {spans_path}",
        f"  {'layer':<14} {'self_ms/op':>12} {'calls/op':>10}  moves / works on / flat on",
    ]
    for layer in layers.LAYERS:
        moves, works, flat = layers.LAYER_EFFECTS[layer]
        table.append(
            f"  {layer:<14} {metrics[layer + '.self_ms'][0]:>12.4f} "
            f"{metrics[layer + '.calls'][0]:>10.3f}  {moves} / {works} / {flat}"
        )
    for metric, (value, unit) in metrics.items():
        if not metric.endswith((".self_ms", ".calls")):
            table.append(f"  {metric:<30} {value:>12.4f} {unit}")
    mean_latency = sum(timed.latencies) / num_ops * 1e3
    attributed = metrics["other.ms"][0] + sum(
        metrics[f"{layer}.self_ms"][0] for layer in layers.LAYERS
    )
    table.append(
        f"  mean op latency {mean_latency:.4f} ms = layer self times + other.ms "
        f"{attributed:.4f} ms (a partition of each op's window)"
    )
    table.append(
        f"  span time outside its op, in no layer: {metrics['trace.clipped_ms'][0]:.4f} "
        f"ms/op; {ledger.spans_outside} spans wholly outside their op"
    )
    table.extend(_failure_lines(failures))
    return Result(not failures, num_ops, len(failures), metrics, table)
