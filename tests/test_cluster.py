"""Unit tests for device specs and the cluster topology."""

import pytest

from repro.cluster.device import A800_SPEC, Device, DeviceSpec
from repro.cluster.topology import (
    ClusterTopology,
    InterconnectSpec,
    TopologyError,
    make_cluster,
)


class TestDeviceSpec:
    def test_achievable_flops(self):
        spec = DeviceSpec(name="x", peak_flops=100.0, memory_bytes=10.0,
                          achievable_fraction=0.5)
        assert spec.achievable_flops == 50.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(peak_flops=0, memory_bytes=1),
            dict(peak_flops=1, memory_bytes=0),
            dict(peak_flops=1, memory_bytes=1, achievable_fraction=0.0),
            dict(peak_flops=1, memory_bytes=1, achievable_fraction=1.5),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            DeviceSpec(name="x", **kwargs)

    def test_a800_reference_values(self):
        assert A800_SPEC.peak_flops == pytest.approx(312e12)
        assert A800_SPEC.memory_bytes == 80 * 1024**3

    def test_device_naming(self):
        device = Device(device_id=9, node_id=1, local_rank=1, spec=A800_SPEC)
        assert device.name == "node1:gpu1"


class TestInterconnectSpec:
    def test_transfer_time(self):
        link = InterconnectSpec(bandwidth=100.0, latency=1.0)
        assert link.transfer_time(200.0) == pytest.approx(3.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            InterconnectSpec(bandwidth=0.0, latency=1.0)
        with pytest.raises(ValueError):
            InterconnectSpec(bandwidth=1.0, latency=-1.0)
        with pytest.raises(ValueError):
            InterconnectSpec(bandwidth=1.0, latency=0.0).transfer_time(-1.0)


class TestClusterTopology:
    def test_device_enumeration(self, two_island_cluster):
        cluster = two_island_cluster
        assert cluster.num_devices == 8
        assert [d.device_id for d in cluster.devices] == list(range(8))
        assert cluster.device(5).node_id == 1

    def test_islands(self, two_island_cluster):
        islands = two_island_cluster.islands()
        assert islands == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert two_island_cluster.island_devices(1) == [4, 5, 6, 7]
        assert two_island_cluster.same_island(0, 3)
        assert not two_island_cluster.same_island(3, 4)

    def test_out_of_range_lookups(self, two_island_cluster):
        with pytest.raises(TopologyError):
            two_island_cluster.device(8)
        with pytest.raises(TopologyError):
            two_island_cluster.island_devices(2)

    def test_link_classes(self, two_island_cluster):
        cluster = two_island_cluster
        assert cluster.link_between(0, 0) is cluster.intra_device
        assert cluster.link_between(0, 1) is cluster.intra_island
        assert cluster.link_between(0, 4) is cluster.inter_island
        assert cluster.bandwidth_between(0, 1) > cluster.bandwidth_between(0, 4)

    def test_group_bandwidth_single_island(self, two_island_cluster):
        link = two_island_cluster.group_bandwidth([0, 1, 2])
        assert link.bandwidth == two_island_cluster.intra_island.bandwidth

    def test_group_bandwidth_cross_island_scales_with_rails(self, cluster16):
        narrow = cluster16.group_bandwidth([0, 8])
        wide = cluster16.group_bandwidth(list(range(16)))
        assert wide.bandwidth > narrow.bandwidth
        assert wide.bandwidth <= cluster16.intra_island.bandwidth

    def test_group_bandwidth_empty_rejected(self, two_island_cluster):
        with pytest.raises(TopologyError):
            two_island_cluster.group_bandwidth([])

    def test_equality_ignores_the_lazy_caches(self):
        """Computing a cached value on one side never changes equality."""
        warm, cold = make_cluster(16), make_cluster(16)
        assert warm == cold
        warm.signature()
        assert warm == cold
        warm.spec_classes()
        warm.canonical_json()
        assert warm == cold
        assert make_cluster(16) != make_cluster(32)

    def test_totals(self, single_island_cluster):
        cluster = single_island_cluster
        assert cluster.total_peak_flops == 4 * cluster.device_spec.peak_flops
        assert cluster.total_memory_bytes == 4 * cluster.device_spec.memory_bytes


class TestMakeCluster:
    def test_paper_cluster_sizes(self):
        for gpus in (8, 16, 32, 64):
            cluster = make_cluster(gpus)
            assert cluster.num_devices == gpus
            assert cluster.devices_per_node == 8

    def test_small_cluster_is_single_island(self):
        cluster = make_cluster(4)
        assert cluster.num_nodes == 1
        assert cluster.devices_per_node == 4

    def test_invalid_sizes(self):
        with pytest.raises(TopologyError):
            make_cluster(0)
        with pytest.raises(TopologyError):
            make_cluster(12, devices_per_node=8)

    def test_invalid_topology_arguments(self):
        with pytest.raises(TopologyError):
            ClusterTopology(num_nodes=0, devices_per_node=8)
        with pytest.raises(TopologyError):
            ClusterTopology(num_nodes=1, devices_per_node=0)
