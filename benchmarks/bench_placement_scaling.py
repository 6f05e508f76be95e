"""Device placement cost per wave entry on 256- to 4096-GPU clusters.

The OFASys-7 workload is planned once per cluster size and the waves and
MetaGraph handed to the locality-aware placer are captured; each timing
then places a fresh copy with a fresh placer.  Placement works on runs of
device ids, so an entry costs about the same whatever the cluster size:
only building the chosen device tuple grows with the entry.  A path that
went back to per-device work for each entry (sorting, hashing or slicing
every free device) costs several times more per entry at 4096 GPUs than
at 256.

The gate is that ratio: per-entry ``place()`` time at 4096 GPUs over 256
GPUs, the same task set, the median of ``PAIRS`` alternating pairs, each
side the best of ``REPEATS`` placements.  Its threshold was set from
repeated reads of the run-based placer on a 2-vCPU host (see CHANGES.md);
the per-device placer it replaced read about three times the baseline.
Milliseconds per plan and per entry at 1024 and 4096 GPUs are reported as
informational.
"""

import copy
import time

from bench_utils import emit, paired_ratio_median

from repro.bench import Metric, informational, register_benchmark
from repro.core.placement import LocalityAwarePlacer
from repro.core.planner import ExecutionPlanner
from repro.experiments.reporting import format_table
from repro.experiments.workloads import ofasys_workload

SIZES = (256, 1024, 4096)
PAIRS = 7
REPEATS = 5
#: Fractional drift of the gated ratio that fails (see the module docstring).
RATIO_THRESHOLD = 0.5


def _captured_placement(cluster, tasks):
    """The waves and MetaGraph one plan hands the placer."""
    planner = ExecutionPlanner(cluster)
    place = planner.placer.place
    captured = []

    def capture(waves, metagraph):
        captured.append((copy.deepcopy(waves), metagraph))
        return place(waves, metagraph)

    planner.placer.place = capture
    planner.plan(tasks)
    [(waves, metagraph)] = captured
    return waves, metagraph


def _best_place_seconds(cluster, waves, metagraph) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        fresh = copy.deepcopy(waves)
        placer = LocalityAwarePlacer(cluster)
        start = time.perf_counter()
        placer.place(fresh, metagraph)
        best = min(best, time.perf_counter() - start)
    return best


@register_benchmark(
    "placement_scaling",
    figure=None,
    stage="planning",
    tags=("planner-cost", "placement", "smoke"),
    description="Per-entry device placement cost at 256-4096 GPUs",
)
def bench_placement_scaling(ctx):
    inputs = {}
    for gpus in SIZES:
        workload = ofasys_workload(7, gpus)
        cluster = ctx.cluster(workload)
        waves, metagraph = _captured_placement(cluster, ctx.tasks(workload))
        entries = sum(len(wave.entries) for wave in waves)
        inputs[gpus] = (cluster, waves, metagraph, entries)

    def per_entry(gpus):
        def side():
            cluster, waves, metagraph, entries = inputs[gpus]
            return _best_place_seconds(cluster, waves, metagraph) / entries, None

        return side

    timing = paired_ratio_median(per_entry(256), per_entry(4096), PAIRS)
    plan_seconds = {gpus: _best_place_seconds(*inputs[gpus][:3]) for gpus in SIZES[1:]}
    rows = [
        [
            f"{gpus}",
            str(inputs[gpus][3]),
            f"{plan_seconds[gpus] * 1e3:.2f}",
            f"{plan_seconds[gpus] / inputs[gpus][3] * 1e6:.1f}",
        ]
        for gpus in SIZES[1:]
    ]
    title = f"device placement, ofasys-7 (4096/256 per-entry ratio {timing.ratio:.2f})"
    emit(
        "placement_scaling",
        format_table(["GPUs", "entries", "place() ms/plan", "us/entry"], rows, title=title),
    )
    metrics = {
        "per_entry_ratio_4096_over_256": Metric(
            value=timing.ratio, unit="x", regression_threshold=RATIO_THRESHOLD
        ),
    }
    for gpus in SIZES[1:]:
        seconds, entries = plan_seconds[gpus], inputs[gpus][3]
        metrics[f"place_ms_per_plan_{gpus}gpu"] = informational(seconds * 1e3, "ms")
        metrics[f"place_us_per_entry_{gpus}gpu"] = informational(seconds / entries * 1e6, "us")
    return metrics
