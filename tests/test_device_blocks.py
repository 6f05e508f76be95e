"""Differential tests of the device-block engine paths and bisected wave extension.

The runtime engine accumulates the boundary and parameter-sync critical paths
over device blocks (:mod:`repro.runtime.blocks`), the parameter pool unions
entry blocks, transmissions read their islands per block, and the simulator
derives each entry's achieved FLOP/s from its one operator-time call.  The
oracles below are the per-device implementations those replaced, kept
verbatim; every float is compared by ``float.hex``.  They run over the
Fig. 8 grid, the large-capture topologies of ``test_plan_identity_large.py``
(256-4096 GPUs, the 270-GPU irregular and the 512-GPU three-spec cluster) and
every ``test_placement_fuzz.py`` draw (``REPRO_FUZZ_SEED`` replays them).

The wavefront scheduler's extension step bisects the sorted valid grid; the
oracle is the grid scan it replaced, compared step by step (a hypothesis
property) and schedule by schedule.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.device import A800_SPEC, TEST_GPU_SPEC
from repro.cluster.topology import make_cluster, make_heterogeneous_cluster
from repro.core.placement import PlacementError, _BlockMemory
from repro.core.planner import ExecutionPlanner
from repro.core.scheduler import WavefrontScheduler
from repro.core.serialization import plan_to_dict
from repro.costmodel.comm import (
    DeviceGroup,
    device_runs,
    group_link,
    link_transfer_time,
    ring_allreduce_time,
)
from repro.experiments.workloads import fig8_workloads
from repro.models import multitask_clip_tasks, ofasys_tasks
from repro.runtime.blocks import DeviceBlocks
from repro.runtime.engine import RuntimeEngine
from repro.runtime.param_groups import ParameterDeviceGroupPool, ParameterGroup
from tests import test_placement_fuzz as fuzz
from tests import test_plan_identity_large as large


# ------------------------------------------------------------------ oracles
def boundary_duration_oracle(transmissions) -> float:
    """``WaveExecutionSimulator._boundary_duration`` before device blocks."""
    per_device: dict[int, float] = {}
    for t in transmissions:
        for device in frozenset(t.src_devices) | frozenset(t.dst_devices):
            per_device[device] = per_device.get(device, 0.0) + t.time_seconds
    if not per_device:
        return 0.0
    return max(per_device.values())


def from_plan_oracle(plan) -> list[ParameterGroup]:
    """``ParameterDeviceGroupPool.from_plan`` before device blocks."""
    entry_devices: list[tuple[int, ...]] = []
    key_entries: dict[str, list[int]] = {}
    key_bytes: dict[str, float] = {}
    for wave in plan.waves:
        for entry in wave.entries:
            metaop = plan.metagraph.metaop(entry.metaop_index)
            number = len(entry_devices)
            entry_devices.append(plan.placement.devices_for(wave.index, entry.metaop_index))
            for op in metaop.operator_slice(entry.operator_offset, entry.layers):
                if op.param_key is None or op.param_bytes == 0:
                    continue
                numbers = key_entries.setdefault(op.param_key, [])
                if not numbers or numbers[-1] != number:
                    numbers.append(number)
                key_bytes[op.param_key] = max(key_bytes.get(op.param_key, 0.0), op.param_bytes)

    unions: dict[tuple[int, ...], tuple[int, ...]] = {}
    by_group: dict[tuple[int, ...], list[str]] = {}
    for key, numbers in key_entries.items():
        signature = tuple(numbers)
        group = unions.get(signature)
        if group is None:
            group = tuple(sorted(set().union(*(entry_devices[n] for n in signature))))
            unions[signature] = group
        by_group.setdefault(group, []).append(key)

    return [
        ParameterGroup(
            devices=group,
            param_keys=tuple(sorted(keys)),
            total_bytes=sum(key_bytes[k] for k in keys),
        )
        for group, keys in sorted(by_group.items())
    ]


def sync_time_oracle(groups, cluster, overlap_fraction) -> float:
    """``ParameterDeviceGroupPool.sync_time`` before device blocks."""
    per_device: dict[int, float] = {}
    for group in [g for g in groups if g.needs_sync]:
        link = cluster.group_bandwidth(group.devices)
        time = ring_allreduce_time(group.total_bytes, group.group_size, link)
        for device in group.devices:
            per_device[device] = per_device.get(device, 0.0) + time
    if not per_device:
        return 0.0
    return max(per_device.values()) * (1.0 - overlap_fraction)


def extension_step_oracle(valid, n, idle):
    """The wave-extension grid scan before bisection."""
    larger = [m for m in valid if n < m <= n + idle]
    if not larger:
        return None
    return min(larger)


class ScanScheduler(WavefrontScheduler):
    """A wavefront scheduler whose extension step scans the whole grid."""

    @staticmethod
    def _extension_step(valid, n, idle):
        return extension_step_oracle(valid, n, idle)


# ------------------------------------------------------------------- plans
def _fig8_plan(workload):
    return ExecutionPlanner(workload.cluster()).plan(workload.tasks())


def _large_plan(name):
    model, make = large.CASES[name]
    return ExecutionPlanner(make()).plan(large._MODELS[model]())


def _fuzz_plan(draw):
    cluster, memory_model, tasks = fuzz._build(draw)
    try:
        return ExecutionPlanner(cluster, memory_model=memory_model).plan(tasks)
    except PlacementError:
        return ExecutionPlanner(
            cluster, memory_model=memory_model, placement_strategy="sequential"
        ).plan(tasks)


FIG8 = fig8_workloads()
PLANS = (
    [pytest.param(lambda w=w: _fig8_plan(w), id=f"fig8-{w.name}") for w in FIG8]
    + [pytest.param(lambda n=n: _large_plan(n), id=f"large-{n}") for n in large.CASES]
    + [
        pytest.param(lambda d=d: _fuzz_plan(d), id=f"fuzz-draw{i}")
        for i, d in enumerate(fuzz.DRAWS)
    ]
)


def _hex_groups(groups):
    return [(g.devices, g.param_keys, g.total_bytes.hex()) for g in groups]


@pytest.mark.parametrize("make_plan", PLANS)
def test_engine_block_paths_match_per_device_oracles(make_plan):
    plan = make_plan()
    cluster = plan.cluster
    engine = RuntimeEngine(plan)

    by_boundary: dict[int, list] = {}
    for t in engine.transmissions:
        by_boundary.setdefault(t.boundary_after_wave, []).append(t)
        src = DeviceGroup.of(cluster, t.src_devices)
        dst = DeviceGroup.of(cluster, t.dst_devices)
        link = group_link(src, dst)
        assert t.link is link
        time = 2.0 * link_transfer_time(cluster, link, src, dst, t.volume_bytes)
        assert t.time_seconds.hex() == time.hex()
    durations = engine._simulator._boundary_durations
    assert sorted(durations) == sorted(by_boundary)
    for boundary, grouped in by_boundary.items():
        assert durations[boundary].hex() == boundary_duration_oracle(grouped).hex()

    pool = engine.parameter_pool
    expected = from_plan_oracle(plan)
    assert _hex_groups(pool.groups) == _hex_groups(expected)
    for overlap in (0.0, 0.5):
        assert pool.sync_time(cluster, overlap).hex() == (
            sync_time_oracle(expected, cluster, overlap).hex()
        )

    result = engine.run_iteration()
    class_pacing = {cls.index: cls.achievable_flops for cls in cluster.spec_classes()}
    timing = engine.timing_model
    blocks = iter(result.trace.blocks)
    for wave in plan.waves:
        for entry in wave.entries:
            pacing = class_pacing[entry.spec_class] if entry.spec_class is not None else None
            achieved = timing.achieved_flops_per_second(
                plan.metagraph.metaop(entry.metaop_index).representative,
                entry.n_devices,
                pacing_flops=pacing,
            )
            block = next(blocks)
            assert block.flops_per_second.hex() == (achieved / max(1, entry.n_devices)).hex()


def test_large_captures_have_blocks_that_span_islands():
    """The island-range rule is exercised: some group's block crosses an island."""
    spanning = 0
    for name in ("clip10-256gpus", "clip10-irregular270", "ofasys7-mixed512"):
        plan = _large_plan(name)
        blocks = DeviceBlocks.of_plan(plan)
        spanning += sum(
            plan.cluster.island_of(start) != plan.cluster.island_of(end - 1)
            for start, end in zip(blocks.bounds, blocks.bounds[1:])
        )
    assert spanning > 0


def test_pool_without_a_plan_partition_matches_the_oracle():
    plan = _large_plan("clip10-irregular270")
    groups = ParameterDeviceGroupPool.from_plan(plan).groups
    standalone = ParameterDeviceGroupPool(groups=list(groups))
    for overlap in (0.0, 0.5):
        assert standalone.sync_time(plan.cluster, overlap).hex() == (
            sync_time_oracle(groups, plan.cluster, overlap).hex()
        )


def test_pool_partition_follows_changed_groups():
    """Appending to or reassigning ``groups`` after a sync rebuilds the blocks."""
    plan = _large_plan("clip10-irregular270")
    pool = ParameterDeviceGroupPool.from_plan(plan)
    pool.sync_time(plan.cluster)
    extra = ParameterGroup(devices=tuple(range(3, 200)), param_keys=("extra",), total_bytes=7e8)
    pool.groups.append(extra)
    assert pool.sync_time(plan.cluster).hex() == (
        sync_time_oracle(pool.groups, plan.cluster, 0.5).hex()
    )
    pool.groups = [extra, *pool.groups[:3]]
    assert pool.sync_time(plan.cluster).hex() == (
        sync_time_oracle(pool.groups, plan.cluster, 0.5).hex()
    )


# ------------------------------------------------------------ partition
device_sets = st.lists(
    st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=40),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(device_sets, st.randoms(use_true_random=False))
def test_partition_covers_every_group_exactly(sets, rnd):
    groups = {}
    for number, devices in enumerate(sets):
        ordered = list(devices)
        rnd.shuffle(ordered)
        groups[number] = tuple(ordered)
    blocks = DeviceBlocks(groups)
    bounds = blocks.bounds
    assert bounds == sorted(set(bounds))
    endpoints = set()
    for number, devices in groups.items():
        runs = device_runs(devices)
        endpoints.update(x for run in runs for x in run)
        cover = blocks.covers[number]
        assert list(cover) == sorted(set(cover))
        assert blocks.devices(cover) == tuple(sorted(devices))
    # Coarsest: every bound is some group's run endpoint.
    assert set(bounds) == endpoints


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=120))
def test_device_runs_are_the_maximal_runs(devices):
    runs = device_runs(tuple(devices))
    expected: list[list[int]] = []
    for device in sorted(devices):
        if expected and expected[-1][1] == device:
            expected[-1][1] += 1
        else:
            expected.append([device, device + 1])
    assert [list(run) for run in runs] == expected


# -------------------------------------------------------------- placement
byte_counts = st.floats(min_value=0.0, max_value=1e10, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sets(st.integers(min_value=0, max_value=23), min_size=1, max_size=12),
            st.sampled_from([None, "shared", "other"]),
            byte_counts,
            byte_counts,
        ),
        max_size=12,
    ),
    byte_counts,
)
def test_block_memory_matches_per_device_accounting(charges, extra):
    """Peaks, fit checks and charges per block equal the per-device ones."""
    cluster = make_heterogeneous_cluster(
        [A800_SPEC, TEST_GPU_SPEC, A800_SPEC], island_sizes=(8, 5, 11)
    )
    overhead = 1.5 * 1024**3
    memory = _BlockMemory(cluster, tuple(map(tuple, cluster.islands())), overhead)
    per_device = [overhead] * cluster.num_devices
    holders: dict[str, set[int]] = {}
    for devices, param_key, param_bytes, activation_bytes in charges:
        runs = device_runs(tuple(devices))
        spans = memory.spans(runs)
        assert memory.peak(spans) == max(per_device[d] for d in devices)
        assert memory.fits(spans, extra) == all(
            per_device[d] + extra <= cluster.spec_of(d).memory_bytes for d in devices
        )
        memory.charge(runs, param_key, param_bytes, activation_bytes)
        if param_key is None:
            fresh = sorted(devices)
        else:
            held = holders.setdefault(param_key, set())
            fresh = sorted(devices - held)
            held.update(fresh)
        for device in fresh:
            per_device[device] += param_bytes
        for device in devices:
            per_device[device] += activation_bytes
    assert [value.hex() for value in memory.per_device().values()] == [
        value.hex() for value in per_device
    ]
    assert list(memory.per_device()) == list(range(cluster.num_devices))


def test_fuzz_draws_split_parameter_holders_within_a_group(monkeypatch):
    """Several MetaOps share a ``param_key`` across waves, and a later group
    covers blocks that partly hold it, so the per-block holder split runs."""
    partial = 0
    charge = _BlockMemory.charge

    def counting(self, runs, param_key, param_bytes, activation_bytes):
        nonlocal partial
        if param_key is not None:
            held = {param_key in self.keys[b] for i, j in self.spans(runs) for b in range(i, j)}
            partial += held == {True, False}
        charge(self, runs, param_key, param_bytes, activation_bytes)

    monkeypatch.setattr(_BlockMemory, "charge", counting)
    for draw in fuzz.DRAWS:
        _fuzz_plan(draw)
        if partial:
            break
    assert partial > 0


# -------------------------------------------------------------- scheduler
@settings(max_examples=500, deadline=None)
@given(
    st.sets(st.integers(min_value=1, max_value=300), min_size=1, max_size=60),
    st.integers(min_value=0, max_value=320),
    st.integers(min_value=0, max_value=320),
)
def test_bisected_extension_step_equals_the_scan(grid, n, idle):
    valid = tuple(sorted(grid))
    assert WavefrontScheduler._extension_step(valid, n, idle) == (
        extension_step_oracle(valid, n, idle)
    )


def _with_scan_scheduler(planner: ExecutionPlanner) -> ExecutionPlanner:
    scheduler = planner.scheduler
    planner.scheduler = ScanScheduler(
        num_devices=scheduler.num_devices,
        valid_allocation_fn=scheduler.valid_allocation_fn,
        allocation_grid=scheduler.allocation_grid,
    )
    return planner


SCHEDULE_CASES = [pytest.param(w.cluster, w.tasks, id=f"fig8-{w.name}") for w in FIG8] + [
    pytest.param(
        lambda: make_heterogeneous_cluster([A800_SPEC, TEST_GPU_SPEC] * 4),
        lambda: multitask_clip_tasks(6),
        id="spec-classes-clip6-64gpus",
    ),
    pytest.param(
        lambda: make_heterogeneous_cluster(large.MIXED_SPECS),
        lambda: ofasys_tasks(7),
        id="spec-classes-ofasys7-mixed512",
    ),
]


@pytest.mark.parametrize(("make_cluster_", "make_tasks"), SCHEDULE_CASES)
def test_schedule_equals_the_scan_schedulers(make_cluster_, make_tasks):
    cluster = make_cluster_()
    tasks = make_tasks()
    bisected = ExecutionPlanner(cluster).plan(tasks)
    scanned = _with_scan_scheduler(ExecutionPlanner(cluster)).plan(tasks)
    if cluster.num_spec_classes > 1:
        assert bisected.report.partitioned_levels > 0
    for plan in (bisected, scanned):
        plan.report = type(plan.report)()
    assert plan_to_dict(bisected) == plan_to_dict(scanned)


def test_scan_scheduler_subclass_is_wired_in():
    planner = _with_scan_scheduler(ExecutionPlanner(make_cluster(16)))
    assert type(planner.scheduler) is ScanScheduler
