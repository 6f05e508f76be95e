"""Communication cost primitives (alpha-beta model over link classes).

The runtime engine charges three classes of communication:

* intra-operator collectives (tensor-parallel activation all-reduces),
* inter-wave point-to-point transmission of data flows (§3.6 step 2),
* parameter-group all-reduces for cross-task gradient synchronisation
  (§3.6 step 3).

All of them reduce to ring all-reduce and point-to-point transfers over one of
the three link classes of the cluster topology (intra-device copy, NVLink
island, inter-island InfiniBand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.cluster.topology import ClusterTopology, InterconnectSpec


class LinkClass(Enum):
    """Class of the link used by a transfer, ordered by decreasing bandwidth."""

    INTRA_DEVICE = "intra_device"
    INTRA_ISLAND = "intra_island"
    INTER_ISLAND = "inter_island"


@dataclass(frozen=True)
class DeviceGroup:
    """A device group with its member and island sets, built once.

    Every transfer into or out of a placed group compares these two sets, so
    the placer and the runtime engine build one ``DeviceGroup`` per placed
    wave entry instead of recomputing the sets for each transfer.
    """

    devices: tuple[int, ...]
    members: frozenset[int]
    islands: frozenset[int]

    @classmethod
    def of(cls, cluster: ClusterTopology, devices: Sequence[int]) -> "DeviceGroup":
        devices = tuple(devices)
        return cls(devices, frozenset(devices), cluster.islands_of(devices))


def group_link(src: DeviceGroup, dst: DeviceGroup) -> LinkClass:
    """Classify the slowest link a transfer between two device groups crosses."""
    if not src.members or not dst.members:
        raise ValueError("Device groups must not be empty")
    if src.members == dst.members:
        return LinkClass.INTRA_DEVICE
    if len(src.islands) == 1 and src.islands == dst.islands:
        return LinkClass.INTRA_ISLAND
    return LinkClass.INTER_ISLAND


def classify_link(
    cluster: ClusterTopology, src_devices: Sequence[int], dst_devices: Sequence[int]
) -> LinkClass:
    """Classify the slowest link a transfer between two device groups crosses."""
    return group_link(
        DeviceGroup.of(cluster, src_devices), DeviceGroup.of(cluster, dst_devices)
    )


def link_spec(cluster: ClusterTopology, link: LinkClass) -> InterconnectSpec:
    if link is LinkClass.INTRA_DEVICE:
        return cluster.intra_device
    if link is LinkClass.INTRA_ISLAND:
        return cluster.intra_island
    return cluster.inter_island


def ring_allreduce_time(
    volume_bytes: float, group_size: int, link: InterconnectSpec
) -> float:
    """Time of an all-reduce of ``volume_bytes`` across ``group_size`` ranks.

    Bandwidth follows the ring algorithm (``2 (g-1)/g`` traversals of the
    payload); the latency term follows the tree algorithm NCCL switches to for
    latency-bound messages (``2 log2(g)`` hops), so small collectives are not
    charged an unrealistically long ring of latencies.
    """
    if volume_bytes < 0:
        raise ValueError("volume must be non-negative")
    if group_size <= 0:
        raise ValueError("group size must be positive")
    if group_size == 1 or volume_bytes == 0:
        return 0.0
    bandwidth_term = 2 * (group_size - 1) / group_size * volume_bytes / link.bandwidth
    latency_term = 2 * math.ceil(math.log2(group_size)) * link.latency
    return latency_term + bandwidth_term


def all_gather_time(
    volume_bytes: float, group_size: int, link: InterconnectSpec
) -> float:
    """Time of an all-gather where each rank contributes ``volume/group`` bytes."""
    if group_size <= 1 or volume_bytes == 0:
        return 0.0
    bandwidth_term = (group_size - 1) / group_size * volume_bytes / link.bandwidth
    latency_term = math.ceil(math.log2(group_size)) * link.latency
    return latency_term + bandwidth_term


def reduce_scatter_time(
    volume_bytes: float, group_size: int, link: InterconnectSpec
) -> float:
    """Time of a reduce-scatter (same cost shape as all-gather)."""
    return all_gather_time(volume_bytes, group_size, link)


def p2p_time(volume_bytes: float, link: InterconnectSpec) -> float:
    """Point-to-point send/receive of ``volume_bytes`` over ``link``."""
    if volume_bytes < 0:
        raise ValueError("volume must be non-negative")
    if volume_bytes == 0:
        return 0.0
    return link.transfer_time(volume_bytes)


def group_allreduce_time(
    cluster: ClusterTopology, device_ids: Sequence[int], volume_bytes: float
) -> float:
    """All-reduce of ``volume_bytes`` within an arbitrary device group."""
    ids = list(device_ids)
    if len(ids) <= 1 or volume_bytes == 0:
        return 0.0
    link = cluster.group_bandwidth(ids)
    return ring_allreduce_time(volume_bytes, len(ids), link)


def group_transfer_time(
    cluster: ClusterTopology,
    src_devices: Sequence[int],
    dst_devices: Sequence[int],
    volume_bytes: float,
) -> float:
    """Transfer ``volume_bytes`` from one device group to another.

    The volume is assumed to be sharded across source devices and re-sharded
    across destination devices using batched point-to-point primitives, so
    ``min(len(src), len(dst))`` transfers proceed in parallel.
    """
    if volume_bytes < 0:
        raise ValueError("volume must be non-negative")
    if volume_bytes == 0:
        return 0.0
    src = DeviceGroup.of(cluster, src_devices)
    dst = DeviceGroup.of(cluster, dst_devices)
    return link_transfer_time(cluster, group_link(src, dst), src, dst, volume_bytes)


def link_transfer_time(
    cluster: ClusterTopology,
    link: LinkClass,
    src: DeviceGroup,
    dst: DeviceGroup,
    volume_bytes: float,
) -> float:
    """:func:`group_transfer_time` between groups whose link class is known."""
    if volume_bytes < 0:
        raise ValueError("volume must be non-negative")
    if volume_bytes == 0:
        return 0.0
    parallelism = max(1, min(len(src.members), len(dst.members)))
    return p2p_time(volume_bytes / parallelism, link_spec(cluster, link))

