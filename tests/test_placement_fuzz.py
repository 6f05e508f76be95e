"""Seeded differential fuzz of device placement and the block trace.

Each draw builds a random irregular (``island_sizes``) or mixed-spec
(``node_specs``) topology of 16-4096 GPUs and a random weighted subset of
the Multitask-CLIP or OFASys tasks.  The draw itself is seeded — from
``REPRO_FUZZ_SEED`` when set, as in ``test_faults_fuzz.py`` — so every
failure is replayable from the seed printed in the assertion message.

Invariants checked per draw:

* the optimized placer (per-island free lists) and the ``optimized=False``
  reference (rescans and sorts) agree on every assignment, every device's
  memory, every OOM event and the backtrack count — or raise the same
  :class:`~repro.core.placement.PlacementError`;
* the plan validates, no device hosts two entries of one wave, spec-class
  entries stay on their class's devices, and without OOM events every device
  fits its own memory;
* every aggregate of the simulated block trace equals, bit for bit, the same
  aggregate recomputed from the per-device ``segments`` with the per-segment
  formulas.
"""

from __future__ import annotations

import copy
import math
import os
import random

import pytest

from repro.cluster.device import A800_SPEC, TEST_GPU_SPEC, DeviceSpec
from repro.cluster.topology import make_heterogeneous_cluster
from repro.core.placement import LocalityAwarePlacer, PlacementError
from repro.core.planner import ExecutionPlanner
from repro.costmodel.memory import MemoryModel, MemoryModelConfig
from repro.models import CLIP_TASKS, OFASYS_TASKS
from repro.models.multitask_clip import build_clip_task
from repro.models.ofasys import build_ofasys_task
from repro.runtime.engine import RuntimeEngine
from tests.test_runtime_trace import assert_aggregates_match_segments

MASTER_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
NUM_DRAWS = 10
MIN_GPUS, MAX_GPUS = 16, 4096
TIMELINE_POINTS = 8
UNLIMITED = 10**6

MID_SPEC = DeviceSpec(
    name="MidGPU-80GB",
    peak_flops=170e12,
    memory_bytes=A800_SPEC.memory_bytes,
    achievable_fraction=0.55,
)
SPECS = (A800_SPEC, MID_SPEC, TEST_GPU_SPEC, A800_SPEC.degraded(0.5))
MODELS = {
    "multitask-clip": (CLIP_TASKS, build_clip_task),
    "ofasys": (OFASYS_TASKS, build_ofasys_task),
}


def _draw(index: int):
    rng = random.Random(f"placement-fuzz:{MASTER_SEED}:{index}")
    target = round(math.exp(rng.uniform(math.log(MIN_GPUS), math.log(MAX_GPUS))))
    per_node = rng.choice((4, 8))
    sizes: list[int] = []
    while sum(sizes) < target:
        sizes.append(rng.randint(1, per_node))
    kind = rng.choice(("irregular", "mixed"))
    if kind == "irregular":
        specs = [A800_SPEC] * len(sizes)
    else:
        specs = [rng.choice(SPECS) for _ in sizes]
    model = rng.choice(sorted(MODELS))
    catalogue = MODELS[model][0]
    chosen = sorted(rng.sample(range(len(catalogue)), rng.randint(1, len(catalogue))))
    weights = [round(rng.uniform(0.5, 2.0), 3) for _ in chosen]
    # Some draws reserve most of each device's memory up front, so that
    # placement hits OOM events and backtracks; the placers then compare
    # under the planner's budget or an unlimited one.
    reserved = rng.choice((None, None, 0.97, 0.99, 0.999))
    budget = rng.choice((32, UNLIMITED))
    return (
        kind, per_node, tuple(sizes), tuple(specs), model, tuple(chosen),
        tuple(weights), reserved, budget,
    )


DRAWS = [_draw(i) for i in range(NUM_DRAWS)]


def _build(draw):
    _, per_node, sizes, specs, model, chosen, weights, reserved, _ = draw
    cluster = make_heterogeneous_cluster(specs, devices_per_node=per_node, island_sizes=sizes)
    memory_model = MemoryModel()
    if reserved is not None:
        memory_model = MemoryModel(
            MemoryModelConfig(framework_overhead_bytes=reserved * cluster.min_memory_bytes)
        )
    catalogue, build = MODELS[model]
    tasks = []
    for index, weight in zip(chosen, weights):
        task = build(catalogue[index])
        task.weight = weight
        tasks.append(task)
    return cluster, memory_model, tasks


def _place(cluster, memory_model, budget, waves, metagraph, optimized):
    """Place a private copy of ``waves``; the result, or the error message."""
    placer = LocalityAwarePlacer(
        cluster, memory_model, max_backtracks=budget, optimized=optimized
    )
    try:
        return placer.place(copy.deepcopy(waves), metagraph)
    except PlacementError as exc:
        return f"PlacementError: {exc}"


def _comparable(placement):
    if isinstance(placement, str):
        return placement
    return (
        placement.assignments,
        [value.hex() for value in placement.device_memory_bytes.values()],
        list(placement.device_memory_bytes),
        placement.oom_events,
        placement.backtracks,
    )


# ------------------------------------------------------------------ tests
@pytest.mark.parametrize("draw", DRAWS, ids=[f"draw{i}" for i in range(NUM_DRAWS)])
def test_placement_and_trace_invariants(draw):
    kind, _, sizes, _, model, chosen, _, reserved, budget = draw
    label = (
        f"{kind} {sum(sizes)} GPUs / {len(sizes)} islands, {model} tasks {chosen}, "
        f"reserved {reserved}, budget {budget} (REPRO_FUZZ_SEED={MASTER_SEED})"
    )
    cluster, memory_model, tasks = _build(draw)
    try:
        plan = ExecutionPlanner(cluster, memory_model=memory_model).plan(tasks)
    except PlacementError:
        plan = None
    # The schedule does not depend on the placer, so a failed plan's waves
    # come from the sequential one.
    scheduled = plan or ExecutionPlanner(
        cluster, memory_model=memory_model, placement_strategy="sequential"
    ).plan(tasks)
    optimized, reference = (
        _place(cluster, memory_model, budget, scheduled.waves, scheduled.metagraph, flag)
        for flag in (True, False)
    )
    assert _comparable(optimized) == _comparable(reference), label
    if plan is None:
        return
    # The planner's placement stayed within its budget, so a larger one
    # changes nothing.
    assert _comparable(optimized) == _comparable(plan.placement), label

    plan.validate()
    for wave in plan.waves:
        used: set[int] = set()
        for entry in wave.entries:
            devices = plan.placement.devices_for(wave.index, entry.metaop_index)
            assert len(set(devices)) == entry.n_devices, label
            assert used.isdisjoint(devices), label
            used.update(devices)
            if entry.spec_class is not None:
                allowed = set(cluster.spec_classes()[entry.spec_class].device_ids)
                assert allowed.issuperset(devices), label
    if not plan.placement.oom_events:
        for device, used_bytes in plan.placement.device_memory_bytes.items():
            assert used_bytes <= cluster.spec_of(device).memory_bytes, label

    trace = RuntimeEngine(plan).run_iteration().trace
    assert len(trace.segments) == sum(
        entry.n_devices for wave in plan.waves for entry in wave.entries
    ), label
    assert_aggregates_match_segments(trace, TIMELINE_POINTS, label)


def test_draws_span_the_size_range_and_both_kinds():
    sizes = [sum(draw[2]) for draw in DRAWS]
    assert min(sizes) >= MIN_GPUS
    assert max(sizes) <= MAX_GPUS + 8
    assert {draw[0] for draw in DRAWS} == {"irregular", "mixed"}
