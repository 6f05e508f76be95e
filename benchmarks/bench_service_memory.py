"""Bytes a serving fleet retains per request built from fresh task objects.

A default :class:`~repro.service.PlanServiceFleet` on 64 GPUs is warmed with
``WINDOWS`` one-task Multitask-CLIP windows, then streams requests over
them: one in ``FRESH_EVERY`` arrives as freshly built task objects, which
its client drops after the response, and the rest resubmit the warmed
objects.  Every request is a cache hit.  The stream carries as many fresh
requests as the fleet's fingerprint memo holds entries, and the last
``TRACED_FRESH`` of them run under ``tracemalloc``, so the figures are read
as the memo fills.

The gated figure is the bytes still allocated after the traced part (and a
full collection) by task-building code (``repro/models``,
``repro/costmodel``, ``repro/graph``), per traced fresh request: 0 when
nothing keeps a dropped workload alive, 15 to 40 KB when its task objects
stay pinned.  The total of what stays allocated is reported alongside,
ungated: it is tens of bytes per fresh request, and it moves with how the
allocator hands a dead workload's addresses to the next one (a memo entry
whose ids come back is overwritten rather than added), which differs
between interpreters.  Both count bytes the program allocates, not the
host's RSS.  ``tracemalloc`` sees every thread, so the figures hold only
when no other benchmark runs at the same time (``repro bench run`` runs one
at a time unless ``--jobs`` says otherwise).
"""

import gc
import tracemalloc

from bench_utils import emit

from repro.bench import Metric, informational, register_benchmark
from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.experiments.reporting import format_table
from repro.models.multitask_clip import CLIP_TASKS, build_clip_task
from repro.service import OUTCOME_HIT, TIER_CACHE, PlanServiceFleet

GPUS = 64
WINDOWS = 8
#: The fleet router's memo capacity (``FingerprintMemo``'s default): the
#: stream carries this many fresh requests, so a memo that keeps workloads
#: alive is full of fresh ones by the end.
FRESH_REQUESTS = 1024
#: The last fresh requests of the stream, which run traced with the hits
#: between them; tracing costs about ten times the untraced stream.
TRACED_FRESH = 128
FRESH_EVERY = 4
#: Where building a task allocates: its operators, modules and documents.
TASK_CODE = [
    tracemalloc.Filter(True, pattern)
    for pattern in ("*/repro/models/*", "*/repro/costmodel/*", "*/repro/graph/*")
]
#: Retained bytes per traced fresh request that fail the pytest check:
#: several times what a memo entry of digest and weak references costs,
#: and a small fraction of one window of task objects.
MAX_BYTES_PER_FRESH = 2048


def _stream(fleet, specs, warmed, num_fresh: int) -> None:
    for i in range(num_fresh * FRESH_EVERY):
        rank = i % WINDOWS
        if i % FRESH_EVERY == 0:
            workload = tuple(build_clip_task(spec) for spec in specs[rank])
        else:
            workload = warmed[rank]
        if fleet.request(workload).tier != TIER_CACHE:
            raise RuntimeError(f"request {i} was not a cache hit")


def measure_retained() -> dict[str, float]:
    """Stream the requests and report what the traced part left allocated."""
    specs = [(spec,) for spec in CLIP_TASKS[:WINDOWS]]
    cluster = make_cluster(GPUS)
    with PlanServiceFleet(lambda: ExecutionPlanner(cluster)) as fleet:
        warmed = [tuple(build_clip_task(spec) for spec in window) for window in specs]
        for window in warmed:
            if fleet.request(window).plan is None:
                raise RuntimeError("warm-up request was not served")
        _stream(fleet, specs, warmed, FRESH_REQUESTS - TRACED_FRESH)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _stream(fleet, specs, warmed, TRACED_FRESH)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
            building = tracemalloc.take_snapshot().filter_traces(TASK_CODE)
            task_bytes = sum(trace.size for trace in building.traces)
        finally:
            tracemalloc.stop()
        hits = fleet.stats.count(OUTCOME_HIT)
    return {
        "bytes_per_fresh": retained / TRACED_FRESH,
        "task_bytes_per_fresh": task_bytes / TRACED_FRESH,
        "stream_hits": float(hits),
    }


@register_benchmark(
    "service_memory",
    figure=None,
    stage="service",
    tags=("service", "memory", "smoke"),
    description="Bytes a default fleet retains per fresh-object request",
)
def bench_service_memory(ctx):
    result = measure_retained()
    emit(
        "service_memory",
        format_table(
            ["requests", "fresh", "traced fresh", "B retained per fresh", "of it task code"],
            [
                [
                    f"{result['stream_hits']:.0f}",
                    str(FRESH_REQUESTS),
                    str(TRACED_FRESH),
                    f"{result['bytes_per_fresh']:.0f}",
                    f"{result['task_bytes_per_fresh']:.0f}",
                ]
            ],
            title=f"serving memory, default fleet on {GPUS} GPUs",
        ),
    )
    return {
        "task_bytes_retained_per_fresh_request": Metric(
            value=result["task_bytes_per_fresh"], unit="B", regression_threshold=0.5
        ),
        "bytes_retained_per_fresh_request": informational(result["bytes_per_fresh"], "B"),
    }


def test_service_memory_is_bounded_per_fresh_request():
    result = measure_retained()
    assert result["stream_hits"] == FRESH_REQUESTS * FRESH_EVERY
    assert result["task_bytes_per_fresh"] == 0
    assert result["bytes_per_fresh"] < MAX_BYTES_PER_FRESH
