"""End-to-end execution planner tying the pipeline of Fig. 2 together.

``ExecutionPlanner.plan`` takes the user-defined tasks (or an already-merged
computation graph) and the target cluster, and runs

    graph contraction (§3.1) → scalability estimation (§3.2)
    → per-MetaLevel resource allocation (§3.3) → wavefront scheduling (§3.4)
    → device placement (§3.5)

producing an :class:`~repro.core.plan.ExecutionPlan` that the runtime engine
(§3.6) instantiates and executes.  Planning-stage wall-clock timings are
recorded in the plan's :class:`~repro.core.plan.PlanningReport` (Fig. 12);
each stage additionally runs inside a ``planner.<stage>`` span and feeds the
``planner.solve_seconds{stage=...}`` histogram of :mod:`repro.obs`, so the
report, the metrics registry and an exported trace share one clock window.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Sequence, Union

from repro.cluster.topology import ClusterTopology
from repro.core.allocator import (
    ResourceAllocator,
    ValidAllocationFn,
    ValidAllocationGrid,
)
from repro.core.contraction import contract_graph
from repro.core.estimator import CurveKey, ScalabilityEstimator, ScalingCurve
from repro.core.placement import LocalityAwarePlacer, SequentialPlacer
from repro.core.plan import (
    ASLTuple,
    ExecutionPlan,
    LevelAllocation,
    PlacementResult,
    PlanningReport,
    Wave,
    WaveEntry,
    WavefrontSchedule,
)
from repro.core.plandiff import NO_REUSE, diff_metagraphs, remap_indices
from repro.core.scheduler import WavefrontScheduler
from repro.costmodel.memory import MemoryModel
from repro.costmodel.profiler import SyntheticProfiler
from repro.costmodel.timing import ExecutionTimeModel, TimingModelConfig
from repro.graph.builder import build_unified_graph
from repro.graph.graph import ComputationGraph
from repro.graph.task import SpindleTask
from repro.obs import get_metrics, get_tracer

PlannerInput = Union[ComputationGraph, Sequence[SpindleTask]]


def _function_signature(fn: Any) -> str:
    """Identity string for a configuration callable, for fingerprinting.

    Named module-level functions are identified by ``module.qualname`` (stable
    across planner instances and processes).  Closures may capture different
    state under one qualname, so the repr of their captured cell contents is
    folded in — closures over equal-repr values share a signature, closures
    over different configuration values never do.
    """
    qualname = getattr(fn, "__qualname__", None)
    if qualname is None:
        return repr(fn)
    signature = f"{getattr(fn, '__module__', '')}.{qualname}"
    closure = getattr(fn, "__closure__", None)
    if closure:
        cells = ",".join(repr(cell.cell_contents) for cell in closure)
        signature += f"[{cells}]"
    return signature


class ExecutionPlanner:
    """The Spindle execution planner (Fig. 2, left half)."""

    def __init__(
        self,
        cluster: ClusterTopology,
        timing_config: TimingModelConfig | None = None,
        profiler: SyntheticProfiler | None = None,
        memory_model: MemoryModel | None = None,
        valid_allocation_fn: ValidAllocationFn | None = None,
        placement_strategy: str = "locality",
        profile_noise_std: float = 0.0,
        optimized: bool = True,
        spec_aware: bool = True,
    ) -> None:
        """``optimized`` selects the vectorized hot path (cached allocation
        grids, estimator curve memoization, table-driven bisection,
        per-island free lists in placement); the
        ``False`` setting runs the reference implementations instead and
        exists so plan-equivalence tests can prove both paths emit identical
        plans.  The flag never affects plan contents and is therefore not part
        of :meth:`config_signature`.

        ``spec_aware`` enables heterogeneity-aware planning on clusters with
        more than one spec class (per-class scaling curves, spec-class
        partitioned levels, per-group pacing).  It has no effect whatsoever on
        homogeneous clusters — those short-circuit to the classic pipeline —
        and ``False`` forces the classic slowest-device-paced plan everywhere
        (the baseline the heterogeneous benchmarks compare against).
        """
        if placement_strategy not in ("locality", "sequential"):
            raise ValueError(
                f"Unknown placement strategy {placement_strategy!r}; "
                "expected 'locality' or 'sequential'"
            )
        self.cluster = cluster
        self.timing_model = ExecutionTimeModel(cluster, timing_config)
        self.profiler = profiler or SyntheticProfiler(
            cluster, self.timing_model, noise_std=profile_noise_std
        )
        self.memory_model = memory_model or MemoryModel()
        self.optimized = optimized
        self.spec_aware = spec_aware
        self._hetero_allocator: "HeterogeneousLevelAllocator | None" = None
        self.estimator = ScalabilityEstimator(
            self.profiler, enable_curve_cache=optimized
        )
        # One memoized valid-allocation grid store shared by the allocator
        # (bisection + discretization) and the scheduler (wave extension).
        self.allocation_grid = ValidAllocationGrid(valid_allocation_fn)
        self.allocator = ResourceAllocator(
            cluster.num_devices,
            valid_allocation_fn=valid_allocation_fn,
            allocation_grid=self.allocation_grid,
            optimized=optimized,
        )
        self.scheduler = WavefrontScheduler(
            cluster.num_devices,
            valid_allocation_fn=valid_allocation_fn
            or self.allocator.valid_allocation_fn,
            allocation_grid=self.allocation_grid,
        )
        if placement_strategy == "locality":
            self.placer = LocalityAwarePlacer(
                cluster, self.memory_model, optimized=optimized
            )
        else:
            self.placer = SequentialPlacer(cluster, self.memory_model)
        self.placement_strategy = placement_strategy

    # ------------------------------------------------------------- public API
    def plan(
        self,
        workload: PlannerInput,
        *,
        precomputed_curves: Mapping[CurveKey, ScalingCurve] | None = None,
        fingerprint: str | None = None,
    ) -> ExecutionPlan:
        """Produce the full Spindle execution plan for ``workload``.

        Parameters
        ----------
        precomputed_curves:
            Scaling curves keyed by
            :func:`~repro.core.estimator.metaop_curve_key`; MetaOps with a
            matching key skip the (dominant) profiling/fitting step.  Curves
            must come from the same cluster and planner configuration.
        fingerprint:
            The workload's canonical fingerprint, if the caller (a plan cache
            or service) already computed it; omitted, it is derived here.
        """
        return self._solve(
            workload,
            precomputed_curves=precomputed_curves,
            fingerprint=fingerprint,
            previous=None,
        )

    def plan_incremental(
        self,
        workload: PlannerInput,
        *,
        previous: ExecutionPlan | None,
        precomputed_curves: Mapping[CurveKey, ScalingCurve] | None = None,
        fingerprint: str | None = None,
    ) -> ExecutionPlan:
        """Plan ``workload``, reusing solved pieces of ``previous`` when sound.

        The produced plan is **byte-identical** to what :meth:`plan` would
        return for the same ``workload`` — identical fingerprint, identical
        serialized document apart from ``planning_report`` stage timings and
        reuse counters.  Only the solve cost changes; the equivalence tests
        pin this contract on every reuse tier.

        Reuse tiers (see :mod:`repro.core.plandiff`):

        1. **Full-structure reuse** — the new contracted graph is structurally
           identical to ``previous``'s under the identity index mapping
           (e.g. a departed job replaced by an isomorphic one under a fresh
           name): allocations, waves *and* device placement transfer; only
           contraction and (pool-served) estimation run.
        2. **Per-level reuse** — individual MetaLevels whose signatures match
           positionally adopt the previous ``LevelAllocation`` (indices
           remapped); scheduling and placement re-run in full, because both
           are global.
        3. **Fallback** — no reuse: behaves exactly like :meth:`plan`.

        Reuse is refused entirely (tier 3) when ``previous`` is ``None``, was
        planned for a different cluster signature, carries spec-class
        partitions, when profiling noise is enabled (the RNG stream must not
        be perturbed), or on heterogeneity-aware multi-class planning.
        ``previous`` must come from a planner with this planner's
        configuration (:meth:`config_signature`); callers such as
        :class:`~repro.service.IncrementalPlanner` guarantee that by
        construction, and the cluster signature is re-checked here.
        """
        if previous is not None and not self._reuse_sound(previous):
            previous = None
        return self._solve(
            workload,
            precomputed_curves=precomputed_curves,
            fingerprint=fingerprint,
            previous=previous,
        )

    def _solve(
        self,
        workload: PlannerInput,
        *,
        precomputed_curves: Mapping[CurveKey, ScalingCurve] | None,
        fingerprint: str | None,
        previous: ExecutionPlan | None,
    ) -> ExecutionPlan:
        report = PlanningReport()
        tracer = get_tracer()
        metrics = get_metrics()

        def finish_stage(name: str, span) -> None:
            # Span, report and metric all observe the *same* clock window, so
            # the trace and the reported timings can never disagree.
            seconds = span.seconds
            report.stage_seconds[name] = seconds
            metrics.observe("planner.solve_seconds", seconds, stage=name)

        if fingerprint is None:
            fingerprint = self._fingerprint(workload)
        graph = self._resolve_graph(workload)

        with tracer.timed(
            "planner.plan", category="planner", fingerprint=fingerprint[:12]
        ) as plan_span:
            with tracer.timed("planner.graph_contraction", category="planner") as span:
                metagraph = contract_graph(graph)
            finish_stage("graph_contraction", span)
            report.num_metaops = metagraph.num_metaops
            report.num_levels = metagraph.num_levels
            plan_span.set(
                num_metaops=metagraph.num_metaops, num_levels=metagraph.num_levels
            )

            # Structural diff against the previous plan (incremental replans
            # only).  Cheap — signature tuples over MetaOps and edges — and
            # purely structural, so it cannot observe names or wall-clock.
            diff = NO_REUSE
            if previous is not None:
                diff = diff_metagraphs(previous.metagraph, metagraph)

            with tracer.timed(
                "planner.scalability_estimation", category="planner"
            ) as span:
                curves, reused = self.estimator.estimate_with_reuse(
                    metagraph, precomputed_curves
                )
            finish_stage("scalability_estimation", span)
            report.reused_curves = reused

            with tracer.timed("planner.resource_allocation", category="planner") as span:
                if self.spec_aware and self.cluster.num_spec_classes > 1:
                    hetero = self._hetero()
                    allocation = hetero.allocate(metagraph, curves)
                    level_allocations = allocation.level_allocations
                    scheduling_curves = allocation.curves
                    report.partitioned_levels = len(allocation.partitioned_levels)
                elif diff.full_structure:
                    level_allocations = _copy_allocations(previous.level_allocations)
                    scheduling_curves = curves
                    report.reused_levels = len(level_allocations)
                elif diff.reusable_levels:
                    level_allocations = self._allocate_mixed(
                        previous, metagraph, curves, set(diff.reusable_levels), report
                    )
                    scheduling_curves = curves
                else:
                    level_allocations = self.allocator.allocate(metagraph, curves)
                    scheduling_curves = curves
            finish_stage("resource_allocation", span)
            report.level_c_star = {
                level: alloc.c_star for level, alloc in level_allocations.items()
            }

            with tracer.timed(
                "planner.wavefront_scheduling", category="planner"
            ) as span:
                if diff.full_structure:
                    schedule = _copy_schedule(previous.schedule)
                else:
                    metaops_by_level = {
                        level: metagraph.metaops_at_level(level)
                        for level in level_allocations
                    }
                    schedule = self.scheduler.schedule(
                        level_allocations, metaops_by_level, scheduling_curves
                    )
            finish_stage("wavefront_scheduling", span)
            report.num_waves = schedule.num_waves

            with tracer.timed("planner.device_placement", category="planner") as span:
                if diff.full_structure:
                    placement = _copy_placement(previous.placement)
                else:
                    placement = self.placer.place(schedule.waves, metagraph)
            finish_stage("device_placement", span)

            if previous is not None:
                metrics.inc(
                    "planner.levels",
                    float(report.reused_levels),
                    outcome="reused",
                )
                metrics.inc(
                    "planner.levels",
                    float(report.num_levels - report.reused_levels),
                    outcome="solved",
                )
                plan_span.set(reused_levels=report.reused_levels)

            plan = ExecutionPlan(
                metagraph=metagraph,
                cluster=self.cluster,
                schedule=schedule,
                placement=placement,
                curves=curves,
                level_allocations=level_allocations,
                report=report,
                fingerprint=fingerprint,
            )
            plan.validate()
        return plan

    def config_signature(self) -> dict[str, Any]:
        """Canonical description of everything that shapes this planner's plans.

        Together with the workload and the cluster this fully determines the
        produced plan; the planning service folds it into cache fingerprints
        so planners with different configurations never share cache entries.
        """
        signature = {
            "placement_strategy": self.placement_strategy,
            "profile_noise_std": self.profiler.noise_std,
            "timing": dataclasses.asdict(self.timing_model.config),
            "memory": dataclasses.asdict(self.memory_model.config),
            "profile_points": self.estimator.profile_points,
            "include_backward": self.estimator.include_backward,
            "valid_allocation_fn": _function_signature(
                self.allocator.valid_allocation_fn
            ),
        }
        # The default (spec-aware) configuration omits the key so that every
        # fingerprint minted before spec-class planning existed stays valid;
        # only the non-default slowest-device-paced configuration is marked,
        # which is all the cache needs to keep the two apart.
        if not self.spec_aware:
            signature["spec_aware"] = False
        return signature

    # -------------------------------------------------------------- internals
    def _reuse_sound(self, previous: ExecutionPlan) -> bool:
        """Whether any structural reuse of ``previous`` can be byte-faithful."""
        if self.profiler.noise_std != 0.0:
            # Reuse skips profiling calls and would shift the RNG stream the
            # noisy reference path depends on.
            return False
        if self.spec_aware and self.cluster.num_spec_classes > 1:
            # Spec-class partitions are solved across levels; per-level reuse
            # has no sound unit there yet.
            return False
        if any(
            alloc.spec_classes is not None
            for alloc in previous.level_allocations.values()
        ):
            return False
        return previous.cluster.signature() == self.cluster.signature()

    def _allocate_mixed(
        self,
        previous: ExecutionPlan,
        metagraph: "MetaGraph",
        curves: dict[int, ScalingCurve],
        reusable: set[int],
        report: PlanningReport,
    ) -> dict[int, LevelAllocation]:
        """Per-level allocation: adopt matched levels, solve the rest.

        Mirrors :meth:`ResourceAllocator.allocate` exactly (same iteration
        order, same dict key order) so the mixed result is indistinguishable
        from a fresh allocation of the same values.
        """
        allocations: dict[int, LevelAllocation] = {}
        reused = 0
        for level, indices in enumerate(metagraph.levels()):
            metaops = [metagraph.metaop(i) for i in indices]
            adopted = None
            if level in reusable:
                prev_alloc = previous.level_allocations.get(level)
                index_map = remap_indices(previous.metagraph, metagraph, level)
                if prev_alloc is not None and index_map is not None:
                    adopted = _remap_allocation(prev_alloc, level, index_map)
            if adopted is not None:
                allocations[level] = adopted
                reused += 1
            else:
                allocations[level] = self.allocator.allocate_level(
                    level, metaops, curves
                )
        report.reused_levels = reused
        return allocations

    def _hetero(self) -> "HeterogeneousLevelAllocator":
        """Lazily built heterogeneity-aware level allocator (hetero clusters)."""
        if self._hetero_allocator is None:
            from repro.core.hetero import HeterogeneousLevelAllocator

            self._hetero_allocator = HeterogeneousLevelAllocator(
                self.cluster, self.allocator, self.estimator
            )
        return self._hetero_allocator

    def _fingerprint(self, workload: PlannerInput) -> str:
        # Imported lazily: the service package depends on the core package.
        from repro.service.fingerprint import fingerprint_workload

        return fingerprint_workload(workload, self.cluster, self.config_signature())

    def _resolve_graph(self, workload: PlannerInput) -> ComputationGraph:
        if isinstance(workload, ComputationGraph):
            return workload
        tasks = list(workload)
        if not tasks:
            raise ValueError("Planner needs at least one task")
        return build_unified_graph(tasks)


# ------------------------------------------------- structural-reuse copying
# Reused pieces are deep-copied into fresh objects: plans own mutable state
# (placement mutates ``WaveEntry.devices``; the simulator reads allocations),
# and two plans must never alias it.


def _remap_allocation(
    alloc: LevelAllocation, level: int, index_map: dict[int, int]
) -> LevelAllocation:
    """Adopt one level's allocation under the new graph's MetaOp indices."""
    return LevelAllocation(
        level=level,
        c_star=alloc.c_star,
        continuous={index_map[i]: v for i, v in alloc.continuous.items()},
        plan={
            index_map[i]: [ASLTuple(t.n_devices, t.layers, t.start) for t in tuples]
            for i, tuples in alloc.plan.items()
        },
    )


def _copy_allocations(
    level_allocations: dict[int, LevelAllocation],
) -> dict[int, LevelAllocation]:
    """Identity-mapped deep copy of a full allocation set."""
    return {
        level: _remap_allocation(
            alloc, alloc.level, {i: i for i in alloc.continuous}
        )
        for level, alloc in level_allocations.items()
    }


def _copy_schedule(schedule: WavefrontSchedule) -> WavefrontSchedule:
    """Deep copy of a wavefront schedule (placed devices carried over)."""
    waves = [
        Wave(
            index=wave.index,
            level=wave.level,
            start=wave.start,
            duration=wave.duration,
            entries=[
                WaveEntry(
                    metaop_index=entry.metaop_index,
                    n_devices=entry.n_devices,
                    layers=entry.layers,
                    duration=entry.duration,
                    operator_offset=entry.operator_offset,
                    devices=tuple(entry.devices),
                    spec_class=entry.spec_class,
                )
                for entry in wave.entries
            ],
        )
        for wave in schedule.waves
    ]
    return WavefrontSchedule(waves=waves, makespan=schedule.makespan)


def _copy_placement(placement: PlacementResult) -> PlacementResult:
    """Copy of a placement result (assignments, OOM records); the device
    memory, which no one writes once placed, is shared."""
    return PlacementResult(
        assignments=dict(placement.assignments),
        device_memory_bytes=placement.device_memory_bytes,
        oom_events=list(placement.oom_events),
        backtracks=placement.backtracks,
    )
