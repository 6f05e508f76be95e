"""Heterogeneous clusters: mixed device specs and irregular islands, end to end.

The paper's testbed is homogeneous; elastic scenarios (stragglers, mixed-spec
expansion, partial node failures) are not.  These tests push mixed
``DeviceSpec`` clusters and irregular island sizes through every layer that
consumes a topology — the topology itself, the timing model, the allocator,
the placement pass and the runtime simulator — and pin the conservative
pacing/capacity semantics the planner applies to them.
"""

import pytest

from repro.cluster.device import A800_SPEC, TEST_GPU_SPEC, DeviceSpec
from repro.cluster.topology import (
    ClusterTopology,
    TopologyError,
    make_cluster,
    make_heterogeneous_cluster,
)
from repro.core.planner import ExecutionPlanner
from repro.costmodel.timing import ExecutionTimeModel
from repro.runtime.engine import RuntimeEngine
from tests.conftest import make_chain_task, make_layer_op

SMALL_MEMORY = DeviceSpec(
    name="small-mem",
    peak_flops=A800_SPEC.peak_flops,
    memory_bytes=8 * 1024**3,
    achievable_fraction=A800_SPEC.achievable_fraction,
)


@pytest.fixture
def mixed_cluster():
    """Two A800 islands of 4 plus one slower TestGPU island of 4."""
    return make_heterogeneous_cluster(
        [A800_SPEC, A800_SPEC, TEST_GPU_SPEC], devices_per_node=4
    )


@pytest.fixture
def tasks():
    return [
        make_chain_task("audio_task", {"audio": 2, "lm": 2}, batch=8),
        make_chain_task("vision_task", {"vision": 2, "lm": 2}, batch=4),
    ]


class TestHeterogeneousTopology:
    def test_per_device_specs(self, mixed_cluster):
        assert not mixed_cluster.is_homogeneous
        assert mixed_cluster.spec_of(0) == A800_SPEC
        assert mixed_cluster.spec_of(8) == TEST_GPU_SPEC
        assert mixed_cluster.device(11).spec == TEST_GPU_SPEC

    def test_totals_sum_per_device(self, mixed_cluster):
        expected_flops = 8 * A800_SPEC.peak_flops + 4 * TEST_GPU_SPEC.peak_flops
        assert mixed_cluster.total_peak_flops == pytest.approx(expected_flops)
        expected_memory = (
            8 * A800_SPEC.memory_bytes + 4 * TEST_GPU_SPEC.memory_bytes
        )
        assert mixed_cluster.total_memory_bytes == pytest.approx(expected_memory)

    def test_min_max_helpers(self, mixed_cluster):
        assert mixed_cluster.min_achievable_flops == TEST_GPU_SPEC.achievable_flops
        assert mixed_cluster.min_memory_bytes == TEST_GPU_SPEC.memory_bytes
        assert mixed_cluster.max_peak_flops == A800_SPEC.peak_flops

    def test_uniform_cluster_helpers_match_spec(self):
        cluster = make_cluster(8)
        assert cluster.is_homogeneous
        assert cluster.min_achievable_flops == A800_SPEC.achievable_flops
        assert cluster.min_memory_bytes == A800_SPEC.memory_bytes
        assert cluster.max_peak_flops == A800_SPEC.peak_flops

    def test_irregular_island_sizes(self):
        cluster = ClusterTopology(
            num_nodes=2, devices_per_node=4, island_sizes=(3, 4)
        )
        assert cluster.num_devices == 7
        assert cluster.islands() == [[0, 1, 2], [3, 4, 5, 6]]
        assert cluster.island_of(3) == 1
        with pytest.raises(TopologyError):
            cluster.device(7)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TopologyError):
            ClusterTopology(num_nodes=2, devices_per_node=4, island_sizes=(4,))
        with pytest.raises(TopologyError):
            ClusterTopology(
                num_nodes=2, devices_per_node=4, node_specs=(A800_SPEC,)
            )
        with pytest.raises(TopologyError):
            ClusterTopology(num_nodes=1, devices_per_node=4, island_sizes=(0,))

    def test_signature_distinguishes_specs_sizes_and_fractions(self):
        uniform = make_cluster(8, devices_per_node=4)
        assert uniform.signature() == make_cluster(8, devices_per_node=4).signature()
        mixed = make_heterogeneous_cluster(
            [A800_SPEC, TEST_GPU_SPEC], devices_per_node=4
        )
        irregular = ClusterTopology(
            num_nodes=2, devices_per_node=4, island_sizes=(3, 4)
        )
        degraded = make_heterogeneous_cluster(
            [A800_SPEC, A800_SPEC.degraded(0.5)], devices_per_node=4
        )
        signatures = {
            uniform.signature(),
            mixed.signature(),
            irregular.signature(),
            degraded.signature(),
        }
        assert len(signatures) == 4

    def test_empty_heterogeneous_cluster_rejected(self):
        with pytest.raises(TopologyError):
            make_heterogeneous_cluster([])


class TestHeterogeneousTiming:
    def test_slowest_device_paces_the_model(self, tasks):
        fast = make_cluster(8, devices_per_node=4)
        mixed = make_heterogeneous_cluster(
            [A800_SPEC, TEST_GPU_SPEC], devices_per_node=4
        )
        op = make_layer_op("probe")
        fast_time = ExecutionTimeModel(fast).operator_time(op, 4)
        mixed_time = ExecutionTimeModel(mixed).operator_time(op, 4)
        assert mixed_time > fast_time

    def test_degraded_spec_slows_the_same_silicon(self):
        healthy = make_cluster(8, devices_per_node=4)
        straggling = make_heterogeneous_cluster(
            [A800_SPEC, A800_SPEC.degraded(0.5)], devices_per_node=4
        )
        op = make_layer_op("probe")
        assert ExecutionTimeModel(straggling).operator_time(op, 4) > (
            ExecutionTimeModel(healthy).operator_time(op, 4)
        )


class TestHeterogeneousPlanning:
    def test_planner_produces_valid_plans_on_mixed_specs(self, mixed_cluster, tasks):
        plan = ExecutionPlanner(mixed_cluster).plan(tasks)
        plan.validate()
        assert plan.schedule.num_waves >= 1
        used = {
            device
            for wave in plan.waves
            for entry in wave.entries
            for device in entry.devices
        }
        assert used <= set(range(mixed_cluster.num_devices))

    def test_planner_handles_irregular_islands(self, tasks):
        cluster = ClusterTopology(
            num_nodes=2, devices_per_node=8, island_sizes=(7, 8)
        )
        plan = ExecutionPlanner(cluster).plan(tasks)
        plan.validate()
        result = RuntimeEngine(plan).run_iteration()
        assert result.iteration_time > 0

    def test_placement_respects_per_device_memory(self, tasks):
        """A small-memory island forces per-device fit checks: the placement
        must not report capacity where the small devices have none."""
        cluster = make_heterogeneous_cluster(
            [A800_SPEC, SMALL_MEMORY], devices_per_node=4
        )
        plan = ExecutionPlanner(cluster).plan(tasks)
        for device_id, used in plan.placement.device_memory_bytes.items():
            capacity = cluster.spec_of(device_id).memory_bytes
            # Unless an OOM event was recorded, placements fit their device.
            if not plan.placement.oom_events:
                assert used <= capacity

    def test_simulator_runs_heterogeneous_plans(self, mixed_cluster, tasks):
        plan = ExecutionPlanner(mixed_cluster).plan(tasks)
        result = RuntimeEngine(plan).run_iteration()
        assert result.iteration_time > 0
        trace = result.trace
        assert trace is not None
        # Utilization normalised by the fastest device's peak stays in [0, 1].
        utilization = trace.device_utilization()
        assert set(utilization) == set(range(mixed_cluster.num_devices))
        assert all(0.0 <= value <= 1.0 + 1e-9 for value in utilization.values())

    def test_mixed_cluster_pacing_orderings(self, tasks):
        """Slowest-device pacing (spec_aware=False) on a mixed cluster is
        slower than a uniform fast cluster, and the heterogeneity-aware
        planner recovers part of that gap (it may even beat the uniform
        cluster on these sync-dominated toy tasks by concentrating work on
        the fast islands — no ordering is asserted there)."""
        fast = make_cluster(8, devices_per_node=4)
        mixed = make_heterogeneous_cluster(
            [A800_SPEC, TEST_GPU_SPEC], devices_per_node=4
        )
        fast_result = RuntimeEngine(ExecutionPlanner(fast).plan(tasks)).run_iteration()
        legacy_result = RuntimeEngine(
            ExecutionPlanner(mixed, spec_aware=False).plan(tasks)
        ).run_iteration()
        aware_result = RuntimeEngine(
            ExecutionPlanner(mixed).plan(tasks)
        ).run_iteration()
        assert legacy_result.iteration_time > fast_result.iteration_time
        assert aware_result.iteration_time <= legacy_result.iteration_time


class TestSpecAggregatesComputedOnce:
    """The spec aggregates are computed at construction and equal the scans
    the properties used to run on every call."""

    @staticmethod
    def scans(cluster):
        spec = cluster.device_spec
        if cluster.node_specs is None:
            n = cluster.num_devices
            return {
                "is_homogeneous": True,
                "total_peak_flops": n * spec.peak_flops,
                "total_memory_bytes": n * spec.memory_bytes,
                "total_achievable_flops": n * spec.achievable_flops,
                "min_achievable_flops": spec.achievable_flops,
                "min_memory_bytes": spec.memory_bytes,
                "max_peak_flops": spec.peak_flops,
            }
        specs = cluster.node_specs
        return {
            "is_homogeneous": all(spec == cluster.device_spec for spec in specs),
            "total_peak_flops": sum(d.spec.peak_flops for d in cluster.devices),
            "total_memory_bytes": sum(d.spec.memory_bytes for d in cluster.devices),
            "total_achievable_flops": sum(d.spec.achievable_flops for d in cluster.devices),
            "min_achievable_flops": min(s.achievable_flops for s in specs),
            "min_memory_bytes": min(s.memory_bytes for s in specs),
            "max_peak_flops": max(s.peak_flops for s in specs),
        }

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_heterogeneous_cluster(
                [A800_SPEC, TEST_GPU_SPEC, A800_SPEC.degraded(0.5)], devices_per_node=4
            ),
            lambda: make_heterogeneous_cluster(
                [A800_SPEC] * 5, devices_per_node=8, island_sizes=(8, 3, 8, 5, 1)
            ),
            lambda: make_heterogeneous_cluster([SMALL_MEMORY, A800_SPEC], island_sizes=(2, 7)),
            lambda: make_cluster(64),
        ],
        ids=["mixed", "irregular", "mixed-irregular", "uniform"],
    )
    def test_each_value_equals_the_scan(self, make):
        cluster = make()
        for name, expected in self.scans(cluster).items():
            value = getattr(cluster, name)
            assert type(value) is type(expected), name
            assert value == expected, name

    def test_cached_values_stay_out_of_equality_and_repr(self):
        assert make_cluster(16) == make_cluster(16)
        a = make_heterogeneous_cluster([A800_SPEC, TEST_GPU_SPEC])
        b = make_heterogeneous_cluster([A800_SPEC, TEST_GPU_SPEC])
        assert a == b
