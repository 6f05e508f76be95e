"""Operators a fresh fingerprint serializes when their structure is known.

A plan service mostly sees task sets it has fingerprinted before, rebuilt
as fresh objects by its clients.  ``fingerprint_workload`` splices each task
document from per-operator JSON fragments that it keeps in a process-wide
table keyed by the operator's canonical fields and their types, so a fresh
build of a known structure should serialize no operator at all.

The gate counts the operators serialized (calls of ``canonical_operator``)
while fingerprinting a second fresh build of a Multitask-CLIP window of 10
tasks and an OFASys window of 7 on 64 GPUs, after a first build was
fingerprinted twice (the second pass restores any fragment the table
dropped if it reached its bound during the first).  The count is 0 when the
table serves every fragment and one per operator (625) when every task
document is serialized afresh, so host noise cannot move it.  The median
microseconds of a fresh fingerprint of each window at 64 and 4096 GPUs are
reported as informational.
"""

import time
from statistics import median

from bench_utils import emit

from repro.bench import Metric, informational, register_benchmark
from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.experiments.reporting import format_table
from repro.models import multitask_clip_tasks, ofasys_tasks
from repro.service import fingerprint as fingerprint_module

WINDOWS = {
    "clip10": lambda: multitask_clip_tasks(10),
    "ofasys7": lambda: ofasys_tasks(7),
}
GPUS = (64, 4096)
#: Fresh builds timed per window and cluster size.
TIMED_BUILDS = 15


def _fingerprint(tasks, cluster) -> str:
    config = ExecutionPlanner(cluster).config_signature()
    return fingerprint_module.fingerprint_workload(tasks, cluster, config)


def count_second_build_encodes(cluster) -> tuple[int, int]:
    """(operators serialized, operators in the build) for second fresh builds."""
    for build in WINDOWS.values():
        first = build()
        _fingerprint(first, cluster)
        _fingerprint(first, cluster)
    second = [build() for build in WINDOWS.values()]
    encoded = 0
    canonical_operator = fingerprint_module.canonical_operator

    def counting(op, *args, **kwargs):
        nonlocal encoded
        encoded += 1
        return canonical_operator(op, *args, **kwargs)

    fingerprint_module.canonical_operator = counting
    try:
        for tasks in second:
            _fingerprint(tasks, cluster)
    finally:
        fingerprint_module.canonical_operator = canonical_operator
    operators = sum(len(task.operators) for tasks in second for task in tasks)
    return encoded, operators


def fresh_fingerprint_us(window: str, cluster) -> float:
    """Median microseconds to fingerprint a fresh build of ``window``."""
    build = WINDOWS[window]
    config = ExecutionPlanner(cluster).config_signature()
    fingerprint_module.fingerprint_workload(build(), cluster, config)
    builds = [build() for _ in range(TIMED_BUILDS)]
    seconds = []
    for tasks in builds:
        start = time.perf_counter()
        fingerprint_module.fingerprint_workload(tasks, cluster, config)
        seconds.append(time.perf_counter() - start)
    return median(seconds) * 1e6


@register_benchmark(
    "fingerprint_reuse",
    figure=None,
    stage="service",
    tags=("service", "smoke"),
    description="Operators a fresh fingerprint of a known structure serializes",
)
def bench_fingerprint_reuse(ctx):
    encoded, operators = count_second_build_encodes(make_cluster(GPUS[0]))
    timings = {
        (window, gpus): fresh_fingerprint_us(window, make_cluster(gpus))
        for gpus in GPUS
        for window in WINDOWS
    }
    emit(
        "fingerprint_reuse",
        format_table(
            ["window", *(f"{gpus} GPUs" for gpus in GPUS)],
            [
                [window, *(f"{timings[window, gpus]:.0f} us" for gpus in GPUS)]
                for window in WINDOWS
            ],
            title=(
                f"fresh fingerprints; second build serialized {encoded} of "
                f"{operators} operators"
            ),
        ),
    )
    metrics = {
        "operators_encoded_second_build": Metric(
            value=float(encoded), unit="ops", regression_threshold=0.0
        ),
        "operators_second_build": informational(float(operators), "ops"),
    }
    for (window, gpus), us in timings.items():
        metrics[f"fresh_fingerprint_us_{window}_{gpus}gpu"] = informational(us, "us")
    return metrics


def test_second_fresh_build_serializes_no_operator():
    encoded, operators = count_second_build_encodes(make_cluster(GPUS[0]))
    assert operators == 625
    assert encoded == 0


def test_fresh_builds_share_the_digest():
    cluster = make_cluster(GPUS[0])
    for build in WINDOWS.values():
        assert _fingerprint(build(), cluster) == _fingerprint(build(), cluster)
