"""Plan-switch cost models: what migrating to a new plan and replanning cost.

A replan after an elastic event produces a new
:class:`~repro.core.plan.ExecutionPlan` whose device placement differs from
the old one's.  Before training can resume, every parameter group must live
where the new plan expects it:

* **re-shard transfer** — parameter + optimizer state whose old device group
  survived the event but differs from the new group is moved over the derived
  topology's links (:func:`~repro.costmodel.comm.group_transfer_time`, which
  parallelises across shard pairs and charges the slowest link class crossed);
* **checkpoint restore** — state whose holders were *all* lost (an island
  outage taking every replica) cannot be transferred and is re-read from the
  checkpoint store, charged at ``checkpoint_read_bandwidth`` shared across the
  restoring devices plus a fixed restore latency.

Old and new plans use different contiguous device ids (ids are remapped per
snapshot), so placements are diffed through the *stable device keys* of the
two :class:`~repro.elastic.view.ElasticSnapshot` mappings.

The total is a serialized upper bound (groups migrate one after another);
real systems overlap transfers, but a deterministic, conservative figure is
what the recovery benchmarks gate on.  :class:`ReplanCostModel` likewise
charges the planner's own time as a deterministic figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.plan import ExecutionPlan
from repro.costmodel.comm import group_transfer_time
from repro.costmodel.memory import MemoryModel
from repro.elastic.view import ElasticSnapshot
from repro.summation import left_sum


@dataclass(frozen=True)
class MigrationGroup:
    """Migration of one parameter group (one MetaOp, or one shared key)."""

    label: str
    param_bytes: float
    source_devices: tuple[int, ...]
    target_devices: tuple[int, ...]
    restored: bool
    seconds: float

    def to_document(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "param_bytes": self.param_bytes,
            "sources": list(self.source_devices),
            "targets": list(self.target_devices),
            "restored": self.restored,
            "seconds": self.seconds,
        }


@dataclass
class MigrationReport:
    """Aggregate migration cost of one plan switch.

    ``lost_iterations``/``recompute_seconds`` charge the training progress
    thrown away by a checkpoint restore: work done since the last checkpoint
    exists only in the lost optimizer state and must be re-executed.  Both are
    zero when nothing was restored or when checkpoint-interval modeling is
    disabled.
    """

    groups: list[MigrationGroup] = field(default_factory=list)
    lost_iterations: int = 0
    recompute_seconds: float = 0.0

    @property
    def moved_bytes(self) -> float:
        return left_sum(g.param_bytes for g in self.groups if not g.restored)

    @property
    def restored_bytes(self) -> float:
        return left_sum(g.param_bytes for g in self.groups if g.restored)

    @property
    def total_bytes(self) -> float:
        return left_sum(g.param_bytes for g in self.groups)

    @property
    def transfer_seconds(self) -> float:
        return left_sum(g.seconds for g in self.groups if not g.restored)

    @property
    def restore_seconds(self) -> float:
        return left_sum(g.seconds for g in self.groups if g.restored)

    @property
    def total_seconds(self) -> float:
        return left_sum(g.seconds for g in self.groups) + self.recompute_seconds

    @property
    def num_restored_groups(self) -> int:
        return sum(1 for g in self.groups if g.restored)

    def to_document(self) -> dict[str, Any]:
        return {
            "moved_bytes": self.moved_bytes,
            "restored_bytes": self.restored_bytes,
            "transfer_seconds": self.transfer_seconds,
            "restore_seconds": self.restore_seconds,
            "lost_iterations": self.lost_iterations,
            "recompute_seconds": self.recompute_seconds,
            "total_seconds": self.total_seconds,
            "num_groups": len(self.groups),
            "num_restored_groups": self.num_restored_groups,
        }


@dataclass(frozen=True)
class ReplanCostModel:
    """Deterministic model of planner wall-clock, charged to the timeline.

    Measured planner time is machine- and run-dependent; charging it would
    make run reports non-reproducible.  This model charges a calibrated
    figure instead — loosely fitted to the Fig. 12 planner-cost measurements
    of the vectorized planner (dominated by profiling MetaOps the curve pool
    has not seen) — and the measured time is reported out-of-band.
    """

    #: Fixed planning overhead per replan (contraction, allocation, placement).
    base_seconds: float = 0.05
    #: Profiling + fitting one scaling curve the pool could not supply.
    seconds_per_profiled_curve: float = 0.02
    #: Allocation/scheduling/placement share per MetaOp.
    seconds_per_metaop: float = 0.002
    #: Serving a recurring topology straight from the plan cache.
    cached_plan_seconds: float = 0.005

    def charge(
        self, num_metaops: int, curves_estimated: int, cache_hit: bool
    ) -> float:
        if cache_hit:
            return self.cached_plan_seconds
        return (
            self.base_seconds
            + self.seconds_per_profiled_curve * curves_estimated
            + self.seconds_per_metaop * num_metaops
        )


class MigrationCostModel:
    """Diffs two plans' placements and prices the parameter movement.

    Parameters
    ----------
    memory_model:
        Supplies the parameter + optimizer state footprint per group (the
        bytes that must physically move; activations are recomputed, not
        migrated).
    checkpoint_read_bandwidth:
        Aggregate bytes/s the checkpoint store sustains for a restore
        (default 5 GB/s — a parallel file system, not local NVMe).
    checkpoint_latency:
        Fixed seconds per restored group (metadata lookup, file open, process
        re-initialisation share).
    checkpoint_interval:
        Iterations between checkpoints.  When set, a restore additionally
        charges the *lost progress* — the iterations executed since the last
        checkpoint must be re-executed, because the restored optimizer state
        predates them.  ``None`` (the default) disables the term and keeps the
        pre-existing bandwidth + latency accounting.
    """

    def __init__(
        self,
        memory_model: MemoryModel | None = None,
        checkpoint_read_bandwidth: float = 5e9,
        checkpoint_latency: float = 2.0,
        checkpoint_interval: int | None = None,
    ) -> None:
        if checkpoint_read_bandwidth <= 0:
            raise ValueError("checkpoint_read_bandwidth must be positive")
        if checkpoint_latency < 0:
            raise ValueError("checkpoint_latency must be non-negative")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive (or None)")
        self.memory_model = memory_model or MemoryModel()
        self.checkpoint_read_bandwidth = checkpoint_read_bandwidth
        self.checkpoint_latency = checkpoint_latency
        self.checkpoint_interval = checkpoint_interval

    # ------------------------------------------------------------- public API
    def assess(
        self,
        old_plan: ExecutionPlan,
        old_snapshot: ElasticSnapshot,
        new_plan: ExecutionPlan,
        new_snapshot: ElasticSnapshot,
        at_iteration: int = 0,
        iteration_seconds: float = 0.0,
    ) -> MigrationReport:
        """Price the migration from ``old_plan`` to ``new_plan``.

        Parameter state is grouped by shared parameter key where one exists
        (cross-task shared modules move once, not once per task) and by MetaOp
        otherwise.  Device groups are compared in the *new* snapshot's id
        space: old ids map through stable keys, devices lost with the event
        drop out of the source set.

        ``at_iteration`` and ``iteration_seconds`` feed the checkpoint-interval
        model: if any group has to be restored from the checkpoint store, the
        ``at_iteration % checkpoint_interval`` iterations executed since the
        last checkpoint are re-executed at ``iteration_seconds`` per iteration
        (callers pass the *new* plan's rate — the re-execution happens after
        the switch) and charged once per plan switch, however many groups
        restore.
        """
        report = MigrationReport()
        old_groups = self._parameter_groups(old_plan)
        new_groups = self._parameter_groups(new_plan)
        topology = new_snapshot.topology
        for label in sorted(new_groups):
            param_bytes, new_devices = new_groups[label]
            targets = tuple(sorted(new_devices))
            old_entry = old_groups.get(label)
            sources: tuple[int, ...] = ()
            if old_entry is not None:
                mapped = {
                    mapped_id
                    for old_id in old_entry[1]
                    if (
                        mapped_id := new_snapshot.id_of(
                            old_snapshot.device_keys[old_id]
                        )
                    )
                    is not None
                }
                sources = tuple(sorted(mapped))
            if not sources:
                # Every old holder vanished (or the group is new): restore
                # from the checkpoint store, shared-bandwidth across targets.
                seconds = (
                    self.checkpoint_latency
                    + param_bytes / self.checkpoint_read_bandwidth
                )
                report.groups.append(
                    MigrationGroup(
                        label=label,
                        param_bytes=param_bytes,
                        source_devices=(),
                        target_devices=targets,
                        restored=True,
                        seconds=seconds,
                    )
                )
            elif set(sources) != set(targets):
                seconds = group_transfer_time(topology, sources, targets, param_bytes)
                report.groups.append(
                    MigrationGroup(
                        label=label,
                        param_bytes=param_bytes,
                        source_devices=sources,
                        target_devices=targets,
                        restored=False,
                        seconds=seconds,
                    )
                )
            # Identical device groups: the shards are already in place.
        if (
            self.checkpoint_interval is not None
            and report.num_restored_groups > 0
        ):
            if at_iteration < 0:
                raise ValueError("at_iteration must be non-negative")
            if iteration_seconds < 0:
                raise ValueError("iteration_seconds must be non-negative")
            report.lost_iterations = at_iteration % self.checkpoint_interval
            report.recompute_seconds = report.lost_iterations * iteration_seconds
        return report

    # -------------------------------------------------------------- internals
    def _parameter_groups(
        self, plan: ExecutionPlan
    ) -> dict[str, tuple[float, set[int]]]:
        """``label -> (state bytes, devices holding the state)`` for one plan.

        The label is the shared parameter key when the representative operator
        has one (those weights exist once across tasks) and the MetaOp's
        stable ``task/op_type`` identity otherwise.  Bytes follow the memory
        model's full parameter + optimizer state accounting at data-parallel
        degree 1 — the migration moves the *whole* group once, however it is
        sharded afterwards.
        """
        groups: dict[str, tuple[float, set[int]]] = {}
        for metaop in plan.metagraph.metaops.values():
            op = metaop.representative
            if op.param_bytes == 0:
                continue
            devices: set[int] = set()
            for wave in plan.waves:
                entry = wave.entry_for(metaop.index)
                if entry is not None:
                    devices.update(
                        plan.placement.devices_for(wave.index, metaop.index)
                    )
            if not devices:
                continue
            state_bytes = (
                self.memory_model.parameter_state_bytes(op, 1) * metaop.num_operators
            )
            label = op.param_key or f"{metaop.task}/{metaop.op_type}#{metaop.index}"
            if label in groups:
                existing_bytes, existing_devices = groups[label]
                groups[label] = (
                    max(existing_bytes, state_bytes),
                    existing_devices | devices,
                )
            else:
                groups[label] = (state_bytes, devices)
        return groups
