"""Heterogeneity-aware allocation: spec-class partitioning of MetaLevels.

The classic allocator (§3.3) treats the cluster as ``N`` interchangeable
devices paced on the slowest device's sustained throughput — correct on the
paper's homogeneous testbed, but wasteful on the mixed-spec substrates the
elastic subsystem produces: a fast island dragged to a slow island's rate
contributes none of its surplus capacity.

This module allocates each MetaLevel *per spec class* instead:

1. **Partition** — the level's MetaOps are split across the cluster's spec
   classes, heaviest MetaOps onto the fastest class first, with each class
   receiving a share of the level's total work proportional to its aggregate
   sustained capacity (devices x per-device rate).
2. **Per-class MPSP** — each class's MetaOp subset is solved as an
   independent malleable-project-scheduling relaxation (Algorithm 2) over the
   class's own device count, using curves profiled *at the class's own
   pacing rate*; classes execute concurrently on disjoint devices, so the
   level's completion estimate is the maximum per-class ``C*``.
3. **Fallback comparison** — the classic cluster-spanning allocation is
   computed as well, and the cheaper of the two (by estimated completion)
   wins.  This guarantees heterogeneity-awareness never regresses below
   slowest-device pacing: levels where spanning every device beats
   partitioning (one huge MetaOp, nearly-equal specs) keep the classic plan.

Homogeneous clusters never reach this module — a single spec class makes the
partition the identity and the planner short-circuits to the classic path,
keeping homogeneous plans byte-identical to the pre-spec-class planner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterTopology, SpecClass
from repro.core.allocator import AllocationError, ResourceAllocator
from repro.core.estimator import ScalabilityEstimator, ScalingCurve
from repro.core.metagraph import MetaGraph, MetaOp
from repro.core.plan import LevelAllocation
from repro.summation import left_sum


def partition_level(
    metaops: list[MetaOp],
    base_curves: dict[int, ScalingCurve],
    classes: tuple[SpecClass, ...],
) -> dict[int, int]:
    """Assign each MetaOp of one level to a spec class, heavy work first.

    MetaOps are walked in descending order of estimated serial work
    (``T(1) * num_operators`` on the base curve, ties broken by index) and
    poured into the classes in fastest-first order; the walk advances to the
    next class once the cumulative work crosses the current class's share of
    the level's total — the share being the class's fraction of the cluster's
    aggregate sustained FLOP/s.  Deterministic: pure arithmetic over the
    fitted curves, no RNG.
    """
    work = {
        m.index: base_curves[m.index].time(1) * m.num_operators for m in metaops
    }
    total_work = left_sum(work.values())
    total_capacity = left_sum(cls.capacity_flops for cls in classes)
    ordered = sorted(metaops, key=lambda m: (-work[m.index], m.index))

    # Cumulative work boundary after which the walk leaves class k.
    boundaries = []
    prefix = 0.0
    for cls in classes:
        prefix += cls.capacity_flops
        boundaries.append(total_work * prefix / total_capacity)

    assignment: dict[int, int] = {}
    cls_cursor = 0
    cumulative = 0.0
    for metaop in ordered:
        assignment[metaop.index] = classes[cls_cursor].index
        cumulative += work[metaop.index]
        while cls_cursor < len(classes) - 1 and cumulative >= boundaries[cls_cursor]:
            cls_cursor += 1
    return assignment


@dataclass
class HeterogeneousAllocation:
    """Result of allocating one MetaGraph heterogeneity-aware.

    ``curves`` maps every MetaOp index to the curve its allocation was made
    with — the class-paced curve on partitioned levels, the base (floor-paced)
    curve on levels where the classic allocation won.  The wavefront scheduler
    must consume these, not the base curves, so wave slicing and alignment use
    the same pacing the allocator did.
    """

    level_allocations: dict[int, LevelAllocation]
    curves: dict[int, ScalingCurve]
    #: Levels that adopted the spec-class partition (diagnostics/reporting).
    partitioned_levels: tuple[int, ...] = ()


class HeterogeneousLevelAllocator:
    """Per-level arbiter between classic floor pacing and spec-class partitioning.

    Bound to one planner: shares the planner's allocator (valid-allocation
    rule, memoized grids, ``optimized`` flag) and estimator (per-class curve
    cache), and builds one sub-allocator per distinct spec-class size.
    """

    def __init__(
        self,
        cluster: ClusterTopology,
        allocator: ResourceAllocator,
        estimator: ScalabilityEstimator,
    ) -> None:
        self.cluster = cluster
        self.base_allocator = allocator
        self.estimator = estimator
        self.classes = cluster.spec_classes()
        if len(self.classes) < 2:
            raise AllocationError(
                "heterogeneous allocation needs at least two spec classes; "
                "homogeneous clusters take the classic path"
            )
        self._class_allocators: dict[int, ResourceAllocator] = {}

    # ------------------------------------------------------------- public API
    def allocate(
        self,
        metagraph: MetaGraph,
        base_curves: dict[int, ScalingCurve],
    ) -> HeterogeneousAllocation:
        """Allocate every MetaLevel, choosing partitioned vs classic per level."""
        curves = dict(base_curves)
        allocations: dict[int, LevelAllocation] = {}
        partitioned_levels: list[int] = []
        for level, indices in enumerate(metagraph.levels()):
            metaops = [metagraph.metaop(i) for i in indices]
            classic = self.base_allocator.allocate_level(level, metaops, base_curves)
            try:
                partitioned, class_curves = self._allocate_partitioned(
                    level, metaops, base_curves
                )
            except AllocationError:
                # A class-restricted sub-problem can be infeasible where the
                # cluster-spanning one is not (e.g. a custom valid-allocation
                # rule with no valid count within one class's few devices).
                # The fallback guarantee must hold: keep the classic plan.
                partitioned = None
            if partitioned is not None and partitioned.c_star < classic.c_star:
                allocations[level] = partitioned
                curves.update(class_curves)
                partitioned_levels.append(level)
            else:
                allocations[level] = classic
        return HeterogeneousAllocation(
            level_allocations=allocations,
            curves=curves,
            partitioned_levels=tuple(partitioned_levels),
        )

    # -------------------------------------------------------------- internals
    def _allocator_for(self, spec_class: SpecClass) -> ResourceAllocator:
        """Sub-allocator over one class's device count (shared grids/config)."""
        allocator = self._class_allocators.get(spec_class.num_devices)
        if allocator is None:
            base = self.base_allocator
            allocator = ResourceAllocator(
                spec_class.num_devices,
                valid_allocation_fn=base.valid_allocation_fn,
                bisection_tolerance=base.bisection_tolerance,
                max_bisection_iters=base.max_bisection_iters,
                allocation_grid=base.allocation_grid,
                optimized=base.optimized,
            )
            self._class_allocators[spec_class.num_devices] = allocator
        return allocator

    def _allocate_partitioned(
        self,
        level: int,
        metaops: list[MetaOp],
        base_curves: dict[int, ScalingCurve],
    ) -> tuple[LevelAllocation, dict[int, ScalingCurve]]:
        """Partition the level and solve one MPSP per populated spec class."""
        assignment = partition_level(metaops, base_curves, self.classes)
        by_class: dict[int, list[MetaOp]] = {}
        for metaop in metaops:
            by_class.setdefault(assignment[metaop.index], []).append(metaop)

        c_star = 0.0
        continuous: dict[int, float] = {}
        plan: dict[int, list] = {}
        class_curves: dict[int, ScalingCurve] = {}
        class_sizes: dict[int, int] = {}
        for cls_index in sorted(by_class):
            spec_class = self.classes[cls_index]
            members = by_class[cls_index]
            curves = self.estimator.estimate_metaops_for_class(
                [(m.index, m) for m in members], spec_class
            )
            allocation = self._allocator_for(spec_class).allocate_level(
                level, members, curves
            )
            c_star = max(c_star, allocation.c_star)
            continuous.update(allocation.continuous)
            plan.update(allocation.plan)
            class_curves.update(curves)
            class_sizes[cls_index] = spec_class.num_devices
        return (
            LevelAllocation(
                level=level,
                c_star=c_star,
                continuous=continuous,
                plan=plan,
                spec_classes=dict(assignment),
                class_sizes=class_sizes,
            ),
            class_curves,
        )
