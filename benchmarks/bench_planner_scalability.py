"""Planner scalability sweep: cluster sizes 16 -> 4096.

The paper's planner-cost figure (Fig. 12) stops at 64 GPUs; this benchmark
extends the sweep to Tab. 2-scale and beyond to demonstrate the asymptotic
behaviour of the planner hot path.  The pre-vectorization planner re-enumerated
``range(1, N+1)`` valid allocations per MetaOp per bisection call and rebuilt
the island grouping per placement query, making planning cost grow
super-linearly with cluster size; with cached allocation grids, table-driven
``Find_Inverse_Value`` and precomputed topology lookups the sweep stays within
single-digit seconds even at 4096 devices.

Each size also reports the wall time of building the runtime engine for the
plan and of simulating one iteration, so the sweep covers the engine at
1024 GPUs and beyond as well as the planner.

Tagged ``scale`` and deliberately *not* ``smoke``: CI's perf-smoke job skips
it, run it on demand with ``repro bench run --name planner_scalability``.
"""

import time

import pytest

from bench_utils import emit

from repro.baselines.spindle_system import SpindleSystem
from repro.bench import informational, register_benchmark
from repro.experiments.reporting import format_table
from repro.experiments.workloads import clip_workload
from repro.runtime.engine import RuntimeEngine

#: Cluster sizes of the sweep (devices); the paper's grid ends at 64.
SCALE_CLUSTER_SIZES = (16, 64, 256, 1024, 4096)

SCALE_SWEEP = tuple(clip_workload(4, gpus) for gpus in SCALE_CLUSTER_SIZES)


@register_benchmark(
    "planner_scalability",
    figure="fig12",
    stage="planning",
    tags=("planner-cost", "scale"),
    description="Planner wall-clock sweep over cluster sizes 16->4096",
)
def bench_planner_scalability(ctx):
    # Wall-clock metrics are machine-dependent: informational, never gated.
    metrics = {}
    rows = []
    for workload in SCALE_SWEEP:
        system = SpindleSystem(ctx.cluster(workload))
        system.plan(ctx.tasks(workload))
        seconds = system.last_planning_seconds
        start = time.perf_counter()
        engine = RuntimeEngine(system.last_plan)
        build_seconds = time.perf_counter() - start
        start = time.perf_counter()
        engine.run_iteration()
        simulate_seconds = time.perf_counter() - start
        gpus = workload.num_gpus
        metrics[f"planning_seconds_{gpus}gpus"] = informational(seconds, "s")
        metrics[f"engine_build_seconds_{gpus}gpus"] = informational(build_seconds, "s")
        metrics[f"simulate_seconds_{gpus}gpus"] = informational(simulate_seconds, "s")
        rows.append(
            [
                f"{gpus}",
                f"{seconds * 1e3:.0f} ms",
                f"{build_seconds * 1e3:.1f} ms",
                f"{simulate_seconds * 1e3:.1f} ms",
            ]
        )
    emit(
        "planner_scalability",
        format_table(
            ["cluster size (GPUs)", "planning time", "engine build", "simulated iteration"],
            rows,
            title="Planner scalability sweep (Multitask-CLIP, 4 tasks)",
        ),
    )
    return metrics


@pytest.mark.parametrize(
    "workload",
    [w for w in SCALE_SWEEP if w.num_gpus <= 256],
    ids=lambda w: w.name,
)
def test_planner_scalability_small(benchmark, workload):
    """Planning stays well under the paper's 3 s bound through 256 GPUs."""
    cluster = workload.cluster()
    tasks = workload.tasks()
    system = SpindleSystem(cluster)
    benchmark.pedantic(lambda: system.plan(tasks), rounds=1, iterations=1)
    assert system.last_planning_seconds < 3.0


def test_planner_scalability_largest():
    """Even the 4096-GPU cluster plans within the paper's 3 s bound."""
    workload = SCALE_SWEEP[-1]
    system = SpindleSystem(workload.cluster())
    system.plan(workload.tasks())
    assert system.last_planning_seconds < 3.0
