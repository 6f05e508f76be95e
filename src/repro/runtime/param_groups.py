"""Parameter device groups for cross-task gradient synchronisation (§3.6).

Parameters shared across tasks (identified by ``Operator.param_key``) may be
instantiated on several devices by different MetaOps.  Before training starts,
Spindle scans all devices to determine the device group of every parameter and
maintains a global *parameter device group pool* ``{D_i -> {W_j}}``; after each
iteration's backward pass, every parameter set is all-reduced within its device
group.

Every group is a union of the plan's device blocks
(:mod:`repro.runtime.blocks`), so the pool unions entry blocks rather than
device sets, and the synchronisation critical path accumulates per block: each
device of a block sees the same groups, in sorted device-tuple order, as it
would device by device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.topology import ClusterTopology
from repro.core.plan import ExecutionPlan
from repro.costmodel.comm import ring_allreduce_time
from repro.runtime.blocks import DeviceBlocks

#: Fraction of gradient synchronisation hidden behind the backward pass.
#: Frameworks bucket gradients and overlap their all-reduce with the remaining
#: backward computation; only the tail is exposed.  The same fraction is
#: applied to every system under comparison.
SYNC_OVERLAP_FRACTION = 0.5


@dataclass(frozen=True)
class ParameterGroup:
    """A device group and the parameters synchronised within it."""

    devices: tuple[int, ...]
    param_keys: tuple[str, ...]
    total_bytes: float

    @property
    def group_size(self) -> int:
        return len(self.devices)

    @property
    def needs_sync(self) -> bool:
        return self.group_size > 1 and self.total_bytes > 0


#: A pool's groups, a device partition built for them and, parallel to the
#: groups, the blocks each group covers.
_Partition = tuple[tuple[ParameterGroup, ...], DeviceBlocks, list[tuple[int, ...]]]


@dataclass
class ParameterDeviceGroupPool:
    """The global pool ``{D_i -> {W_j}}`` of §3.6."""

    groups: list[ParameterGroup] = field(default_factory=list)
    #: ``from_plan`` sets it from the plan's partition; ``sync_time``
    #: rebuilds it from ``groups`` whenever they no longer match.
    _partition: _Partition | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_plan(
        cls, plan: ExecutionPlan, blocks: DeviceBlocks | None = None
    ) -> "ParameterDeviceGroupPool":
        """Scan the execution plan and build the parameter device group pool.

        ``blocks`` is the plan's device partition, built here when not given.
        """
        blocks = blocks or DeviceBlocks.of_plan(plan)
        # Each key's device set is the union of the groups of the entries
        # whose operators use it.  Keys are recorded against entry numbers;
        # every distinct list of entries is unioned once, over blocks.
        entry_blocks: list[tuple[int, ...]] = []
        key_entries: dict[str, list[int]] = {}
        key_bytes: dict[str, float] = {}
        for wave in plan.waves:
            for entry in wave.entries:
                metaop = plan.metagraph.metaop(entry.metaop_index)
                number = len(entry_blocks)
                entry_blocks.append(blocks.covers[(wave.index, entry.metaop_index)])
                for op in metaop.operator_slice(entry.operator_offset, entry.layers):
                    if op.param_key is None or op.param_bytes == 0:
                        continue
                    numbers = key_entries.setdefault(op.param_key, [])
                    if not numbers or numbers[-1] != number:
                        numbers.append(number)
                    # Operators sharing a key are instances of the same
                    # parameters; their sizes coincide, keep the largest.
                    key_bytes[op.param_key] = max(
                        key_bytes.get(op.param_key, 0.0), op.param_bytes
                    )

        unions: dict[tuple[int, ...], tuple[int, ...]] = {}
        by_group: dict[tuple[int, ...], list[str]] = {}
        for key, numbers in key_entries.items():
            signature = tuple(numbers)
            group = unions.get(signature)
            if group is None:
                group = tuple(sorted(set().union(*(entry_blocks[n] for n in signature))))
                unions[signature] = group
            by_group.setdefault(group, []).append(key)

        # Blocks are disjoint ascending intervals, so ascending block tuples
        # sort exactly as the device tuples they expand to.
        ordered = sorted(by_group.items())
        groups = [
            ParameterGroup(
                devices=blocks.devices(group),
                param_keys=tuple(sorted(keys)),
                total_bytes=sum(key_bytes[k] for k in keys),
            )
            for group, keys in ordered
        ]
        pool = cls(groups=groups)
        pool._partition = (tuple(groups), blocks, [group for group, _ in ordered])
        return pool

    # ------------------------------------------------------------- accounting
    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def total_bytes(self) -> float:
        return sum(g.total_bytes for g in self.groups)

    def groups_needing_sync(self) -> list[ParameterGroup]:
        return [g for g in self.groups if g.needs_sync]

    def sync_time(
        self, cluster: ClusterTopology, overlap_fraction: float = SYNC_OVERLAP_FRACTION
    ) -> float:
        """Critical-path time of group-wise parameter synchronisation.

        Every group all-reduces its parameters within its device group; groups
        touching disjoint devices proceed concurrently, so the critical path is
        the busiest device's accumulated synchronisation time.  A fraction of
        that time (``overlap_fraction``) is hidden behind the tail of the
        backward pass, as gradient-bucketing frameworks do; the same overlap is
        granted to every system under comparison.
        """
        if not 0.0 <= overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must be in [0, 1)")
        groups = tuple(self.groups)
        if self._partition is None or self._partition[0] != groups:
            built = DeviceBlocks(dict(enumerate(g.devices for g in groups)))
            self._partition = (groups, built, list(built.covers.values()))
        _, partition, group_blocks = self._partition
        # Every device of a block sees the same groups in the same order, so
        # the busiest block's sum is the busiest device's.
        per_block: dict[int, float] = {}
        for group, blocks in zip(groups, group_blocks, strict=True):
            if not group.needs_sync:
                continue
            link = cluster.collective_link(
                group.group_size, len(partition.islands(cluster, blocks))
            )
            time = ring_allreduce_time(group.total_bytes, group.group_size, link)
            for block in blocks:
                per_block[block] = per_block.get(block, 0.0) + time
        if not per_block:
            return 0.0
        return max(per_block.values()) * (1.0 - overlap_fraction)

    def group_for_key(self, param_key: str) -> ParameterGroup | None:
        for group in self.groups:
            if param_key in group.param_keys:
                return group
        return None
