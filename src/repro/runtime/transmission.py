"""Inter-wave data-flow transmission operators (§3.6, step 2).

The runtime engine inserts transmission operators at wave boundaries to move
forward activations (and, in the backward pass, gradients) between MetaOp
slices.  Transmissions fall into three link classes — intra-device copy,
intra-island NVLink, inter-island InfiniBand — and the device placement pass
exists precisely to keep the high-volume flows on the fast links (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.topology import ClusterTopology
from repro.core.plan import ExecutionPlan
from repro.costmodel.comm import DeviceGroup, LinkClass, group_link, link_transfer_time
from repro.runtime.blocks import DeviceBlocks


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
    #: The plan's device blocks this transfer occupies (senders and
    #: receivers): what boundary critical-path accounting charges.
    touched_blocks: frozenset[int] = field(repr=False, compare=False)

    @property
    def is_local(self) -> bool:
        return self.link is LinkClass.INTRA_DEVICE


def build_transmissions(
    plan: ExecutionPlan,
    cluster: ClusterTopology | None = None,
    include_backward: bool = True,
    blocks: DeviceBlocks | None = None,
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
    ``blocks`` is the plan's device partition, built here when not given.
    """
    cluster = cluster or plan.cluster
    blocks = blocks or DeviceBlocks.of_plan(plan)
    passes = 2.0 if include_backward else 1.0
    transmissions: list[TransmissionOp] = []

    # Wave entries of each MetaOp in execution order, each placed group's
    # runs and island set built once for every transfer it takes part in;
    # the islands are read per run, not per device.
    slices: dict[int, list[tuple[int, DeviceGroup, tuple[int, ...]]]] = {}
    for wave in plan.waves:
        for entry in wave.entries:
            key = (wave.index, entry.metaop_index)
            devices = plan.placement.devices_for(*key)
            runs = blocks.runs[key]
            group = DeviceGroup(devices, runs, len(devices), cluster.islands_of_runs(runs))
            slices.setdefault(entry.metaop_index, []).append(
                (wave.index, group, blocks.covers[key])
            )

    def add(
        boundary: int,
        src_meta: int,
        dst_meta: int,
        src: tuple[int, DeviceGroup, tuple[int, ...]],
        dst: tuple[int, DeviceGroup, tuple[int, ...]],
        volume: float,
    ) -> None:
        if volume <= 0:
            return
        _, src_group, src_blocks = src
        _, dst_group, dst_blocks = dst
        link = group_link(src_group, dst_group)
        time = passes * link_transfer_time(cluster, link, src_group, dst_group, volume)
        transmissions.append(
            TransmissionOp(
                boundary_after_wave=boundary,
                src_metaop=src_meta,
                dst_metaop=dst_meta,
                src_devices=src_group.devices,
                dst_devices=dst_group.devices,
                volume_bytes=volume,
                link=link,
                time_seconds=time,
                touched_blocks=frozenset(src_blocks).union(dst_blocks),
            )
        )

    # Residual flows between consecutive slices of the same MetaOp.
    for metaop_index, entries in slices.items():
        metaop = plan.metagraph.metaop(metaop_index)
        residual_volume = metaop.representative.activation_bytes
        for src, dst in zip(entries, entries[1:]):
            add(
                boundary=src[0],
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
        src = slices[src_meta][-1]
        dst = slices[dst_meta][0]
        add(
            boundary=src[0],
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
