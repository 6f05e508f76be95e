"""Unit tests for device placement (§3.5)."""

import copy
import gc
import tracemalloc

import pytest

from repro.cluster.device import A800_SPEC
from repro.cluster.topology import make_cluster, make_heterogeneous_cluster
from repro.core.allocator import ResourceAllocator
from repro.core.contraction import contract_graph
from repro.core.estimator import ScalabilityEstimator
from repro.core.placement import (
    LocalityAwarePlacer,
    PlacementError,
    SequentialPlacer,
    _BlockMemory,
)
from repro.core.scheduler import WavefrontScheduler
from repro.costmodel.memory import MemoryModel, MemoryModelConfig
from repro.costmodel.profiler import SyntheticProfiler
from repro.graph.builder import build_unified_graph


def build_schedule(cluster, tasks):
    """Plan up to (but excluding) placement for the given tasks."""
    graph = build_unified_graph(tasks)
    metagraph = contract_graph(graph)
    curves = ScalabilityEstimator(SyntheticProfiler(cluster)).estimate(metagraph)
    allocations = ResourceAllocator(cluster.num_devices).allocate(metagraph, curves)
    scheduler = WavefrontScheduler(cluster.num_devices)
    metaops_by_level = {
        level: metagraph.metaops_at_level(level) for level in allocations
    }
    schedule = scheduler.schedule(allocations, metaops_by_level, curves)
    return metagraph, schedule


@pytest.fixture
def planned(two_island_cluster, tiny_tasks):
    metagraph, schedule = build_schedule(two_island_cluster, tiny_tasks)
    return two_island_cluster, metagraph, schedule


class TestLocalityAwarePlacer:
    def test_every_entry_gets_the_right_number_of_devices(self, planned):
        cluster, metagraph, schedule = planned
        placement = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        for wave in schedule.waves:
            for entry in wave.entries:
                devices = placement.devices_for(wave.index, entry.metaop_index)
                assert len(devices) == entry.n_devices
                assert len(set(devices)) == entry.n_devices
                assert all(0 <= d < cluster.num_devices for d in devices)

    def test_no_device_double_booked_within_a_wave(self, planned):
        cluster, metagraph, schedule = planned
        placement = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        for wave in schedule.waves:
            used: list[int] = []
            for entry in wave.entries:
                used.extend(placement.devices_for(wave.index, entry.metaop_index))
            assert len(used) == len(set(used))

    def test_small_entries_stay_within_one_island(self, planned):
        cluster, metagraph, schedule = planned
        placement = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        for wave in schedule.waves:
            for entry in wave.entries:
                if entry.n_devices > cluster.devices_per_node:
                    continue
                devices = placement.devices_for(wave.index, entry.metaop_index)
                islands = {cluster.island_of(d) for d in devices}
                assert len(islands) == 1

    def test_same_metaop_prefers_same_devices_across_waves(self, planned):
        cluster, metagraph, schedule = planned
        placement = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        moves = 0
        slices: dict[int, list[tuple[int, ...]]] = {}
        for wave in schedule.waves:
            for entry in wave.entries:
                slices.setdefault(entry.metaop_index, []).append(
                    placement.devices_for(wave.index, entry.metaop_index)
                )
        stayed = 0
        total = 0
        for history in slices.values():
            for prev, nxt in zip(history, history[1:]):
                total += 1
                if set(prev) & set(nxt):
                    stayed += 1
                else:
                    moves += 1
        if total:
            assert stayed >= moves

    def test_memory_accounted_for_every_device(self, planned):
        cluster, metagraph, schedule = planned
        memory_model = MemoryModel()
        placement = LocalityAwarePlacer(cluster, memory_model).place(
            schedule.waves, metagraph
        )
        assert set(placement.device_memory_bytes) == set(range(cluster.num_devices))
        for value in placement.device_memory_bytes.values():
            assert value >= memory_model.framework_overhead()

    def test_oom_recorded_when_memory_is_scarce(self, two_island_cluster, tiny_tasks):
        metagraph, schedule = build_schedule(two_island_cluster, tiny_tasks)
        # An absurdly large activation multiplier guarantees projected OOM.
        scarce = MemoryModel(
            MemoryModelConfig(activation_multiplier=1e7, framework_overhead_bytes=0.0)
        )
        placer = LocalityAwarePlacer(two_island_cluster, scarce, max_backtracks=10_000)
        placement = placer.place(schedule.waves, metagraph)
        assert placement.oom_events
        assert placement.backtracks > 0

    @pytest.mark.parametrize(
        "cluster",
        [
            make_cluster(32, devices_per_node=4),
            make_heterogeneous_cluster([A800_SPEC] * 6, island_sizes=(3, 8, 1, 5, 8, 2)),
        ],
        ids=["uniform", "irregular"],
    )
    @pytest.mark.parametrize("multiplier", [1.0, 1e3, 1e7])
    def test_optimized_matches_reference(self, cluster, tiny_tasks, multiplier):
        """Free-list candidates score and choose exactly as the reference
        rescans do, including the lowest-peak choice once nothing fits."""
        metagraph, schedule = build_schedule(cluster, tiny_tasks)
        memory = MemoryModel(MemoryModelConfig(activation_multiplier=multiplier))
        results = []
        for optimized in (True, False):
            placer = LocalityAwarePlacer(
                cluster, memory, max_backtracks=10_000, optimized=optimized
            )
            results.append(placer.place(copy.deepcopy(schedule.waves), metagraph))
        fast, reference = results
        assert fast.assignments == reference.assignments
        assert fast.device_memory_bytes == reference.device_memory_bytes
        assert fast.oom_events == reference.oom_events
        assert fast.backtracks == reference.backtracks

    def test_device_memory_retained_bytes_do_not_grow_with_device_count(self):
        """The optimized placer reports memory per block, so a plan's map
        costs the same bytes on 64 and on 4096 devices with one history."""

        def retained(num_devices):
            cluster = make_cluster(num_devices)
            memory = _BlockMemory(cluster, tuple(map(tuple, cluster.islands())), 1.0)
            memory.charge(((0, 8),), "shared", 2.0, 3.0)
            # A full collection empties the interpreter's free lists, so both
            # sizes count the map's tuples; whether one came off a free list
            # otherwise depended on what ran before.
            gc.collect()
            tracemalloc.start()
            try:
                mapping = memory.per_device()
                size = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert list(mapping.items()) == [
                (device, 6.0 if device < 8 else 1.0) for device in range(num_devices)
            ]
            return size

        small = retained(64)
        assert retained(4096) <= small < 1024

    def test_memory_imbalance_metric(self, planned):
        cluster, metagraph, schedule = planned
        placement = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        assert placement.memory_imbalance() >= 1.0


class TestSequentialPlacer:
    def test_consecutive_device_blocks(self, planned):
        cluster, metagraph, schedule = planned
        placement = SequentialPlacer(cluster).place(schedule.waves, metagraph)
        for wave in schedule.waves:
            cursor = 0
            for entry in sorted(wave.entries, key=lambda e: e.metaop_index):
                devices = placement.devices_for(wave.index, entry.metaop_index)
                assert devices == tuple(range(cursor, cursor + entry.n_devices))
                cursor += entry.n_devices

    def test_sequential_placement_moves_metaops_more(self, planned):
        """The ablation baseline causes more cross-wave device churn."""
        cluster, metagraph, schedule = planned
        locality = LocalityAwarePlacer(cluster).place(schedule.waves, metagraph)
        sequential = SequentialPlacer(cluster).place(schedule.waves, metagraph)

        def churn(placement):
            history: dict[int, list[tuple[int, ...]]] = {}
            for wave in schedule.waves:
                for entry in wave.entries:
                    history.setdefault(entry.metaop_index, []).append(
                        placement.devices_for(wave.index, entry.metaop_index)
                    )
            moved = 0
            for slices in history.values():
                for prev, nxt in zip(slices, slices[1:]):
                    moved += len(set(nxt) - set(prev))
            return moved

        assert churn(sequential) >= churn(locality)


class TestPlacementErrors:
    def test_oversized_wave_rejected(self, planned):
        cluster, metagraph, schedule = planned
        placer = LocalityAwarePlacer(cluster)
        # Corrupt a wave entry to request more devices than the cluster has.
        wave = schedule.waves[0]
        wave.entries[0].n_devices = cluster.num_devices + 1
        with pytest.raises(PlacementError):
            placer.place([wave], metagraph)
