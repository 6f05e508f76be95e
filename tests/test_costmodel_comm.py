"""Unit tests for the communication cost primitives."""

import pytest

from repro.cluster.topology import InterconnectSpec, TopologyError
from repro.costmodel.comm import (
    DeviceGroup,
    LinkClass,
    all_gather_time,
    classify_link,
    group_allreduce_time,
    group_link,
    group_transfer_time,
    link_spec,
    link_transfer_time,
    link_transfer_times,
    p2p_time,
    reduce_scatter_time,
    ring_allreduce_time,
)

LINK = InterconnectSpec(bandwidth=100e9, latency=10e-6)


class TestRingAllReduce:
    def test_zero_cases(self):
        assert ring_allreduce_time(0.0, 8, LINK) == 0.0
        assert ring_allreduce_time(1e9, 1, LINK) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(-1.0, 2, LINK)
        with pytest.raises(ValueError):
            ring_allreduce_time(1.0, 0, LINK)

    def test_bandwidth_term_approaches_2x_volume(self):
        volume = 1e9
        time_large_group = ring_allreduce_time(volume, 64, LINK)
        # 2 * (g-1)/g -> 2, so the bandwidth term approaches 2 * V / BW.
        assert time_large_group == pytest.approx(2 * volume / LINK.bandwidth, rel=0.1)

    def test_monotone_in_volume(self):
        assert ring_allreduce_time(2e9, 8, LINK) > ring_allreduce_time(1e9, 8, LINK)

    def test_latency_grows_logarithmically(self):
        tiny = 1.0  # bandwidth term negligible
        t8 = ring_allreduce_time(tiny, 8, LINK)
        t64 = ring_allreduce_time(tiny, 64, LINK)
        assert t64 / t8 == pytest.approx(2.0, rel=0.05)  # log2(64)/log2(8)


class TestOtherCollectives:
    def test_all_gather_half_of_allreduce_bandwidth(self):
        volume = 1e9
        ag = all_gather_time(volume, 32, LINK)
        ar = ring_allreduce_time(volume, 32, LINK)
        assert ag < ar

    def test_reduce_scatter_matches_all_gather(self):
        assert reduce_scatter_time(1e8, 8, LINK) == all_gather_time(1e8, 8, LINK)

    def test_p2p(self):
        assert p2p_time(0.0, LINK) == 0.0
        assert p2p_time(1e9, LINK) == pytest.approx(LINK.latency + 1e9 / LINK.bandwidth)
        with pytest.raises(ValueError):
            p2p_time(-1.0, LINK)


class TestLinkClassification:
    def test_same_group_is_intra_device(self, two_island_cluster):
        assert classify_link(two_island_cluster, [0, 1], [0, 1]) is LinkClass.INTRA_DEVICE

    def test_same_island_different_devices(self, two_island_cluster):
        assert classify_link(two_island_cluster, [0, 1], [2, 3]) is LinkClass.INTRA_ISLAND

    def test_cross_island(self, two_island_cluster):
        assert classify_link(two_island_cluster, [0], [4]) is LinkClass.INTER_ISLAND

    def test_empty_groups_rejected(self, two_island_cluster):
        with pytest.raises(ValueError):
            classify_link(two_island_cluster, [], [0])

    def test_link_spec_mapping(self, two_island_cluster):
        assert link_spec(two_island_cluster, LinkClass.INTRA_DEVICE) is two_island_cluster.intra_device
        assert link_spec(two_island_cluster, LinkClass.INTRA_ISLAND) is two_island_cluster.intra_island
        assert link_spec(two_island_cluster, LinkClass.INTER_ISLAND) is two_island_cluster.inter_island


class TestGroupPrimitives:
    def test_group_allreduce_trivial_group(self, two_island_cluster):
        assert group_allreduce_time(two_island_cluster, [0], 1e9) == 0.0
        assert group_allreduce_time(two_island_cluster, [0, 1], 0.0) == 0.0

    def test_group_allreduce_cross_island_slower_for_pairs(self, two_island_cluster):
        intra = group_allreduce_time(two_island_cluster, [0, 1], 1e9)
        inter = group_allreduce_time(two_island_cluster, [0, 4], 1e9)
        assert inter > intra

    def test_group_transfer_same_devices_is_cheap(self, two_island_cluster):
        same = group_transfer_time(two_island_cluster, [0, 1], [0, 1], 1e8)
        moved = group_transfer_time(two_island_cluster, [0, 1], [4, 5], 1e8)
        assert same < moved

    def test_group_transfer_parallelises_over_pairs(self, two_island_cluster):
        narrow = group_transfer_time(two_island_cluster, [0], [4], 1e9)
        wide = group_transfer_time(two_island_cluster, [0, 1, 2, 3], [4, 5, 6, 7], 1e9)
        assert wide < narrow

    def test_group_transfer_zero_volume(self, two_island_cluster):
        assert group_transfer_time(two_island_cluster, [0], [1], 0.0) == 0.0
        with pytest.raises(ValueError):
            group_transfer_time(two_island_cluster, [0], [1], -1.0)


class TestDeviceGroups:
    def test_group_carries_member_and_island_sets(self, two_island_cluster):
        group = DeviceGroup.of(two_island_cluster, [5, 0, 5])
        assert group.devices == (5, 0, 5)
        assert group.members == {0, 5}
        assert group.islands == {0, 1}

    def test_runs_and_member_count_drive_link_and_parallelism(self, two_island_cluster):
        """``[5, 0, 5]`` has two members: its runs, not its tuple, decide the
        link class, and its member count the transfer parallelism."""
        cluster = two_island_cluster
        group = DeviceGroup.of(cluster, [5, 0, 5])
        assert group.runs == ((0, 1), (5, 6))
        assert group.size == 2
        wide = DeviceGroup.of(cluster, [0, 1, 2, 3])
        assert group_link(group, DeviceGroup.of(cluster, [0, 5])) is LinkClass.INTRA_DEVICE
        assert group_link(group, wide) is LinkClass.INTER_ISLAND
        expected = p2p_time(1e9 / 2, link_spec(cluster, LinkClass.INTER_ISLAND))
        assert link_transfer_time(cluster, LinkClass.INTER_ISLAND, group, wide, 1e9) == expected
        assert group_transfer_time(cluster, [5, 0, 5], [0, 1, 2, 3], 1e9) == expected
        assert link_transfer_times(cluster, group, wide.size, 1e9) == tuple(
            link_transfer_time(cluster, link, group, wide, 1e9) for link in LinkClass
        )

    def test_group_rejects_out_of_range_devices(self, two_island_cluster):
        with pytest.raises(TopologyError):
            DeviceGroup.of(two_island_cluster, [0, 8])
        with pytest.raises(TopologyError):
            DeviceGroup.of(two_island_cluster, [-1])

