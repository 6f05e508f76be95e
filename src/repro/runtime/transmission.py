"""Inter-wave data-flow transmission operators (§3.6, step 2).

The runtime engine inserts transmission operators at wave boundaries to move
forward activations (and, in the backward pass, gradients) between MetaOp
slices.  Transmissions fall into three link classes — intra-device copy,
intra-island NVLink, inter-island InfiniBand — and the device placement pass
exists precisely to keep the high-volume flows on the fast links (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.cluster.topology import ClusterTopology
from repro.core.plan import ExecutionPlan
from repro.costmodel.comm import DeviceGroup, LinkClass, group_link, link_transfer_time


@dataclass(frozen=True)
class TransmissionOp:
    """One inter-wave data transfer inserted by the runtime engine."""

    boundary_after_wave: int
    src_metaop: int
    dst_metaop: int
    src_devices: tuple[int, ...]
    dst_devices: tuple[int, ...]
    volume_bytes: float
    link: LinkClass
    time_seconds: float

    @property
    def is_local(self) -> bool:
        return self.link is LinkClass.INTRA_DEVICE

    @cached_property
    def touched_devices(self) -> frozenset[int]:
        """Every device this transfer occupies (senders and receivers).

        Cached: the op is immutable, and boundary critical-path accounting
        touches this set for every transmission of every simulated boundary.
        """
        return frozenset(self.src_devices) | frozenset(self.dst_devices)


def build_transmissions(
    plan: ExecutionPlan,
    cluster: ClusterTopology | None = None,
    include_backward: bool = True,
) -> list[TransmissionOp]:
    """Derive all inter-wave transmissions required by an execution plan.

    Two kinds of flows cross wave boundaries:

    * *residual* flows between consecutive slices of the same MetaOp (the
      activations produced by the last operator of one slice feed the first
      operator of the next slice), and
    * *inter-MetaOp* flows along MetaGraph edges, from the last slice of the
      source MetaOp to the first slice of the destination MetaOp.

    With ``include_backward`` (the default) each transfer is charged twice,
    once for forward activations and once for backward gradients.
    """
    cluster = cluster or plan.cluster
    passes = 2.0 if include_backward else 1.0
    transmissions: list[TransmissionOp] = []

    # Wave entries of each MetaOp in execution order, each placed group's
    # member and island sets built once for every transfer it takes part in.
    slices: dict[int, list[tuple[int, DeviceGroup]]] = {}
    for wave in plan.waves:
        for entry in wave.entries:
            devices = plan.placement.devices_for(wave.index, entry.metaop_index)
            slices.setdefault(entry.metaop_index, []).append(
                (wave.index, DeviceGroup.of(cluster, devices))
            )

    def add(
        boundary: int,
        src_meta: int,
        dst_meta: int,
        src: DeviceGroup,
        dst: DeviceGroup,
        volume: float,
    ) -> None:
        if volume <= 0:
            return
        link = group_link(src, dst)
        time = passes * link_transfer_time(cluster, link, src, dst, volume)
        transmissions.append(
            TransmissionOp(
                boundary_after_wave=boundary,
                src_metaop=src_meta,
                dst_metaop=dst_meta,
                src_devices=src.devices,
                dst_devices=dst.devices,
                volume_bytes=volume,
                link=link,
                time_seconds=time,
            )
        )

    # Residual flows between consecutive slices of the same MetaOp.
    for metaop_index, entries in slices.items():
        metaop = plan.metagraph.metaop(metaop_index)
        residual_volume = metaop.representative.activation_bytes
        for (src_wave, src), (_, dst) in zip(entries, entries[1:]):
            add(
                boundary=src_wave,
                src_meta=metaop_index,
                dst_meta=metaop_index,
                src=src,
                dst=dst,
                volume=residual_volume,
            )

    # Inter-MetaOp flows along MetaGraph edges.
    for (src_meta, dst_meta), volume in plan.metagraph.edges.items():
        if src_meta not in slices or dst_meta not in slices:
            continue
        src_wave, src = slices[src_meta][-1]
        _, dst = slices[dst_meta][0]
        add(
            boundary=src_wave,
            src_meta=src_meta,
            dst_meta=dst_meta,
            src=src,
            dst=dst,
            volume=volume,
        )

    return transmissions


def total_transmission_time(transmissions: list[TransmissionOp]) -> float:
    """Sum of all transmission times (upper bound; the simulator overlaps them)."""
    return sum(t.time_seconds for t in transmissions)


def transmission_volume_by_link(
    transmissions: list[TransmissionOp],
) -> dict[LinkClass, float]:
    """Aggregate transferred bytes by link class (used for Fig. 6-style reports)."""
    volumes = {link: 0.0 for link in LinkClass}
    for t in transmissions:
        volumes[t.link] += t.volume_bytes
    return volumes
