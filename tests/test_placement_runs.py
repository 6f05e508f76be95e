"""Differential tests of run-based placement against the ``optimized=False`` oracle.

The optimized :class:`~repro.core.placement.LocalityAwarePlacer` keeps a
wave's free devices as runs of ids, forms candidates by run arithmetic,
scores them with one transfer time per source and link class and picks the
lowest (score, position) without deduplicating.  Each case below builds
waves by hand so that one of the paths the run arithmetic must get right is
taken, asserts that it was, and checks that both placers agree on every
assignment (device order included), every device's memory bytes, every OOM
event and the backtrack count.  A hypothesis property then does the same
over random waves on random irregular and mixed-spec clusters.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.device import A800_SPEC, TEST_GPU_SPEC
from repro.cluster.topology import make_cluster, make_heterogeneous_cluster
from repro.core.metagraph import MetaGraph, MetaOp
from repro.core.placement import LocalityAwarePlacer, PlacementError
from repro.core.plan import Wave, WaveEntry
from repro.costmodel.memory import MemoryModel, MemoryModelConfig
from repro.graph.ops import Operator, TensorSpec

GiB = 1024**3


def _metagraph(volumes: dict[int, float], edges: dict[tuple[int, int], float]) -> MetaGraph:
    """One single-operator MetaOp per key, each ``volumes[i]`` activation bytes."""
    graph = MetaGraph()
    for index, volume in volumes.items():
        op = Operator(
            name=f"op{index}",
            op_type=f"layer{index}",
            task="task",
            modality="text",
            input_spec=TensorSpec(1, 1, 1),
            flops=1e9,
            param_bytes=2 * GiB,
            activation_bytes=volume,
            param_key=f"key{index}",
        )
        graph.add_metaop(MetaOp(index=index, operators=[op]))
    for (src, dst), volume in edges.items():
        graph.add_edge(src, dst, volume)
    return graph


def _wave(index: int, *entries: tuple) -> Wave:
    """A wave of ``(metaop, n_devices[, spec_class])`` entries."""
    return Wave(
        index=index,
        level=0,
        start=float(index),
        duration=1.0,
        entries=[
            WaveEntry(
                metaop_index=e[0],
                n_devices=e[1],
                layers=1,
                duration=1.0,
                spec_class=e[2] if len(e) > 2 else None,
            )
            for e in entries
        ],
    )


def place_both(cluster, waves, metagraph, memory_model=None, memory_weight=0.15):
    """Place with both paths, assert they agree, return the optimized result."""
    results = []
    for optimized in (True, False):
        placer = LocalityAwarePlacer(
            cluster,
            memory_model,
            memory_weight=memory_weight,
            max_backtracks=10_000,
            optimized=optimized,
        )
        results.append(placer.place(copy.deepcopy(waves), metagraph))
    fast, reference = results
    assert fast.assignments == reference.assignments
    assert [(d, m.hex()) for d, m in fast.device_memory_bytes.items()] == [
        (d, m.hex()) for d, m in reference.device_memory_bytes.items()
    ]
    assert fast.oom_events == reference.oom_events
    assert fast.backtracks == reference.backtracks
    return fast


def test_equal_peak_ties_among_remote_islands_go_by_position():
    """Islands 2 and 3 tie on peak and share one comm value: island 2 wins."""
    cluster = make_cluster(16, devices_per_node=4)
    graph = _metagraph({0: 1e8, 1: 1e8, 2: 1e8}, {(0, 1): 1e8})
    waves = [
        _wave(0, (0, 4), (2, 4)),
        # Metaop 0's slice fills island 0 again; metaop 1's neighbour island
        # is then full, so its island candidates are all remote.
        _wave(1, (0, 4), (1, 2)),
    ]
    result = place_both(cluster, waves, graph)
    assert result.assignments[(0, 0)] == (0, 1, 2, 3)
    assert result.assignments[(0, 2)] == (4, 5, 6, 7)
    assert result.assignments[(1, 0)] == (0, 1, 2, 3)
    # Island 1 (first remote, but charged in wave 0) and the spill onto it
    # lose; islands 2 and 3 tie and the first of them is taken.
    assert result.assignments[(1, 1)] == (8, 9)


def test_overlapping_sources_keep_first_occurrence_order():
    """The previous slice (4..11) and a predecessor (0..7) share 4..7: each
    device is offered once, at its first position in source order.  Without
    the memory term every candidate here scores its comm alone, so equal
    comm values go by position."""
    cluster = make_cluster(16, devices_per_node=4)
    graph = _metagraph({0: 1e8, 1: 1e8, 2: 1e8}, {(0, 1): 1e9, (0, 2): 1e8})
    waves = [
        _wave(0, (0, 8)),
        # Metaop 1 (the larger flow) takes 0..3 first, so metaop 2 spills
        # from metaop 0's free devices onto island 2.
        _wave(1, (2, 8), (1, 4)),
        _wave(2, (2, 10)),
        _wave(3, (2, 12)),
    ]
    result = place_both(cluster, waves, graph, memory_weight=0.0)
    assert result.assignments[(0, 0)] == tuple(range(8))
    assert result.assignments[(1, 1)] == (0, 1, 2, 3)
    assert result.assignments[(1, 2)] == tuple(range(4, 12))
    # The spill (0..9) ties on comm; the first candidate wins.
    assert result.assignments[(2, 2)] == (*range(4, 12), 0, 1)
    # Now the predecessor's 0, 1 and 4..7 were offered by the previous slice.
    assert result.assignments[(3, 2)] == (*range(4, 12), 0, 1, 2, 3)


def test_spill_crosses_islands_and_joins_runs():
    """Islands 0..3 hold 3, 2, 4 and 3 devices.  The spill walks the
    neighbour's island 2 first, then joins islands 0 and 1 into one run."""
    cluster = make_heterogeneous_cluster([A800_SPEC] * 4, island_sizes=(3, 2, 4, 3))
    graph = _metagraph({0: 1e8, 1: 1e8, 2: 1e8}, {(0, 1): 1e8})
    waves = [
        _wave(0, (2, 5), (0, 4)),
        _wave(1, (0, 2), (1, 7)),
    ]
    result = place_both(cluster, waves, graph)
    assert result.assignments[(0, 2)] == (0, 1, 2, 3, 4)
    assert result.assignments[(0, 0)] == (5, 6, 7, 8)
    assert result.assignments[(1, 0)] == (5, 6)
    assert result.assignments[(1, 1)] == (7, 8, 0, 1, 2, 3, 4)


def test_preferred_first_candidate_equal_to_an_island_candidate():
    """The neighbour's whole island is both the first candidate and an island
    candidate; the reference drops the duplicate, the run path keeps both and
    the first position wins with the same device order."""
    cluster = make_cluster(16, devices_per_node=4)
    graph = _metagraph({0: 1e8, 1: 1e8, 2: 1e8}, {(0, 1): 1e8})
    waves = [_wave(0, (2, 4), (0, 4)), _wave(1, (1, 4))]
    result = place_both(cluster, waves, graph)
    assert result.assignments[(0, 0)] == (4, 5, 6, 7)
    assert result.assignments[(1, 1)] == (4, 5, 6, 7)


def test_spec_class_pools_on_a_mixed_spec_cluster():
    cluster = make_heterogeneous_cluster(
        [A800_SPEC, TEST_GPU_SPEC, A800_SPEC, TEST_GPU_SPEC, A800_SPEC], devices_per_node=4
    )
    classes = {cls.spec: cls for cls in cluster.spec_classes()}
    fast, slow = classes[A800_SPEC], classes[TEST_GPU_SPEC]
    graph = _metagraph({0: 1e8, 1: 1e8, 2: 1e8}, {(0, 1): 1e8, (0, 2): 1e8})
    waves = [
        _wave(0, (0, 6, slow.index)),
        # Metaop 1's neighbour sits on the other class: its preferred devices
        # and islands are outside its pool.  Metaop 2 spills over its class's
        # non-adjacent islands.
        _wave(1, (1, 4, fast.index), (2, 6, fast.index), (0, 2, slow.index)),
    ]
    result = place_both(cluster, waves, graph)
    assert set(slow.islands) == {1, 3} and set(fast.islands) == {0, 2, 4}
    assert result.assignments == {
        (0, 0): (4, 5, 6, 7, 12, 13),
        (1, 1): (0, 1, 2, 3),
        (1, 2): (8, 9, 10, 11, 16, 17),
        (1, 0): (4, 5),
    }


def test_all_infeasible_takes_the_lowest_peak_first_by_position():
    cluster = make_cluster(20, devices_per_node=4)
    graph = _metagraph({0: 1e8, 1: 1e8, 2: 1e8}, {(0, 1): 1e8})
    scarce = MemoryModel(MemoryModelConfig(activation_multiplier=1e4, framework_overhead_bytes=0.0))
    waves = [
        _wave(0, (0, 4), (2, 2)),
        _wave(1, (0, 4), (1, 2)),
    ]
    result = place_both(cluster, waves, graph, scarce)
    assert (1, 1) in result.oom_events
    assert result.assignments[(1, 0)] == (8, 9, 10, 11)
    # Nothing fits anywhere.  Islands 0 and 1 come first but hold wave 0's
    # charges; islands 3 and 4 tie on the lowest peak and island 3 is first.
    memory = result.device_memory_bytes
    assert memory[12] > 0 and memory[16] == memory[14] == 0
    assert result.assignments[(1, 1)] == (12, 13)


def test_a_wave_larger_than_the_cluster_raises_on_both_paths():
    cluster = make_cluster(8, devices_per_node=4)
    graph = _metagraph({0: 1e8, 1: 1e8}, {})
    waves = [_wave(0, (0, 6), (1, 4))]
    for optimized in (True, False):
        placer = LocalityAwarePlacer(cluster, optimized=optimized)
        try:
            placer.place(copy.deepcopy(waves), graph)
        except PlacementError as exc:
            assert "needs 4 devices but only 2 are free" in str(exc)
        else:  # pragma: no cover - the assertion message names the path
            raise AssertionError(f"optimized={optimized} placed an oversized wave")


@st.composite
def _placement_cases(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=6))
    mixed = draw(st.booleans())
    if mixed:
        specs = [draw(st.sampled_from((A800_SPEC, TEST_GPU_SPEC))) for _ in sizes]
    else:
        specs = [A800_SPEC] * len(sizes)
    cluster = make_heterogeneous_cluster(specs, island_sizes=sizes)
    classes = cluster.spec_classes() if mixed else ()
    num_metaops = draw(st.integers(1, 5))
    volumes = {i: draw(st.sampled_from((0.0, 1e6, 1e8))) for i in range(num_metaops)}
    edges = {
        (src, dst): draw(st.sampled_from((0.0, 1e7, 1e9)))
        for src in range(num_metaops)
        for dst in range(src + 1, num_metaops)
        if draw(st.booleans())
    }
    waves = []
    for index in range(draw(st.integers(1, 5))):
        metaops = draw(st.permutations(range(num_metaops)))
        free = {cls.index: cls.num_devices for cls in classes}
        total = cluster.num_devices
        entries = []
        for metaop in metaops[: draw(st.integers(1, num_metaops))]:
            spec_class = None
            if classes and draw(st.booleans()):
                spec_class = draw(st.sampled_from([c.index for c in classes]))
            room = free[spec_class] if spec_class is not None else total
            room = min(room, total)
            if room < 1:
                continue
            n = draw(st.integers(1, room))
            total -= n
            if spec_class is not None:
                free[spec_class] -= n
            entries.append((metaop, n, spec_class))
        if entries:
            waves.append(_wave(len(waves), *entries))
    multiplier = draw(st.sampled_from((1.0, 1e3, 1e5)))
    return cluster, waves, _metagraph(volumes, edges), multiplier


@settings(max_examples=300, deadline=None)
@given(_placement_cases())
def test_random_waves_place_as_the_reference(case):
    cluster, waves, graph, multiplier = case
    memory = MemoryModel(MemoryModelConfig(activation_multiplier=multiplier))
    outcomes = []
    for optimized in (True, False):
        placer = LocalityAwarePlacer(cluster, memory, max_backtracks=10_000, optimized=optimized)
        try:
            outcomes.append(placer.place(copy.deepcopy(waves), graph))
        except PlacementError as exc:
            outcomes.append(str(exc))
    fast, reference = outcomes
    if isinstance(reference, str):
        assert fast == reference
        return
    assert fast.assignments == reference.assignments
    assert [m.hex() for m in fast.device_memory_bytes.values()] == [
        m.hex() for m in reference.device_memory_bytes.values()
    ]
    assert fast.oom_events == reference.oom_events
    assert fast.backtracks == reference.backtracks
