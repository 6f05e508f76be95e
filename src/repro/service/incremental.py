"""Incremental re-planning: reuse scalability curves across plan requests.

Scalability estimation dominates the planner's cost (Fig. 12): every MetaOp is
profiled at several allocation sizes before its piecewise alpha-beta curve is
fitted.  A MetaOp's curve, however, depends only on its representative
operator's workload (type, tensor shape, FLOPs, parameters, batch) and on the
cluster — not on which other tasks happen to be in the request.  Dynamic
workloads (Appendix D) therefore re-profile mostly unchanged MetaOps at every
phase transition.

:class:`IncrementalPlanner` exploits this purity: it keeps an LRU pool of
fitted curves keyed by the MetaOp workload signature and hands them to the
planner as precomputed curves, so a phase transition only profiles the MetaOps
it has never seen.  The pool must not be shared across different clusters or
planner configurations — curves embed both — which the class enforces by
binding to one planner instance.

With ``reuse_levels=True`` the wrapper additionally retains the most recent
plan and routes requests through
:meth:`~repro.core.planner.ExecutionPlanner.plan_incremental`, which adopts
structurally unchanged MetaLevel allocations — and, on a full structural
match, the schedule and device placement too — instead of re-solving them.
The produced plans stay byte-identical to a full solve (the planner enforces
the soundness preconditions and the equivalence tests pin the contract); only
latency changes, which is what the unified-runtime benchmark gates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.estimator import ScalingCurve
from repro.core.plan import ExecutionPlan
from repro.core.planner import ExecutionPlanner, PlannerInput


class StaleTopologyError(RuntimeError):
    """The bound planner's cluster changed under an incremental planner.

    Pooled curves embed the topology they were profiled on; transferring them
    onto a different cluster silently misestimates every MetaOp.  Replanning
    on a changed substrate must build one :class:`IncrementalPlanner` per
    topology (as :class:`repro.unified.runtime.UnifiedRunner` does) instead of
    rebinding this one.
    """


@dataclass
class IncrementalStats:
    """Curve-reuse counters across all plans produced so far."""

    plans: int = 0
    curves_reused: int = 0
    curves_estimated: int = 0
    estimation_seconds_saved: float = 0.0
    #: MetaLevel allocations adopted from the retained previous plan
    #: (``reuse_levels=True`` only; see ``PlanningReport.reused_levels``).
    levels_reused: int = 0
    #: Plans that adopted every MetaLevel of the retained previous plan —
    #: in practice the full-structure tier, which also transfers the
    #: schedule and device placement wholesale.
    full_structure_reuses: int = 0

    @property
    def reuse_rate(self) -> float:
        total = self.curves_reused + self.curves_estimated
        if total == 0:
            return 0.0
        return self.curves_reused / total


class IncrementalPlanner:
    """Plans workloads while pooling per-MetaOp scalability curves.

    Parameters
    ----------
    planner:
        The underlying execution planner.  All plans produced through this
        wrapper share its cluster and configuration, which is what makes the
        pooled curves transferable between requests.
    max_curves:
        Capacity of the curve pool; least recently used curves are dropped.
    reuse_levels:
        Retain the most recent plan and route requests through
        :meth:`ExecutionPlanner.plan_incremental` so structurally unchanged
        MetaLevels (or whole plans) are adopted instead of re-solved.  Off by
        default: callers that never see perturbed resubmissions (one-shot
        planning) should not pay the retained-plan memory.
    """

    def __init__(
        self,
        planner: ExecutionPlanner,
        max_curves: int = 4096,
        reuse_levels: bool = False,
    ) -> None:
        if max_curves <= 0:
            raise ValueError("max_curves must be positive")
        self.planner = planner
        self.max_curves = max_curves
        self.reuse_levels = reuse_levels
        self._curves: OrderedDict[tuple, ScalingCurve] = OrderedDict()
        self._previous_plan: ExecutionPlan | None = None
        self.stats = IncrementalStats()
        self._last_estimation_cost: float | None = None
        self._topology_signature = planner.cluster.signature()

    # ------------------------------------------------------------- public API
    def plan(
        self,
        workload: PlannerInput,
        *,
        fingerprint: str | None = None,
    ) -> ExecutionPlan:
        """Plan ``workload``, reusing pooled curves for known MetaOps.

        ``fingerprint`` skips re-deriving an already-computed canonical
        fingerprint (the unified runner passes the one it keyed its plan
        cache on).
        """
        if self.planner.cluster.signature() != self._topology_signature:
            raise StaleTopologyError(
                "the bound planner's cluster changed; pooled curves are only "
                "valid for the topology they were profiled on — create a new "
                "IncrementalPlanner for the new topology"
            )
        if self.reuse_levels:
            plan = self.planner.plan_incremental(
                workload,
                previous=self._previous_plan,
                precomputed_curves=self._curves,
                fingerprint=fingerprint,
            )
            self._previous_plan = plan
            self.stats.levels_reused += plan.report.reused_levels
            if (
                plan.report.num_levels > 0
                and plan.report.reused_levels == plan.report.num_levels
            ):
                self.stats.full_structure_reuses += 1
        else:
            plan = self.planner.plan(
                workload,
                precomputed_curves=self._curves,
                fingerprint=fingerprint,
            )
        reused = plan.report.reused_curves
        estimated = plan.report.num_metaops - reused
        self.stats.plans += 1
        self.stats.curves_reused += reused
        self.stats.curves_estimated += estimated
        self._account_savings(plan, reused, estimated)
        self._harvest(plan)
        return plan

    @property
    def num_pooled_curves(self) -> int:
        return len(self._curves)

    def clear(self) -> None:
        """Drop the pooled curves (e.g. after recalibrating the cost model).

        The bound planner's estimator keeps its own deterministic curve
        memoization (keyed identically), which must be flushed with the pool —
        otherwise the next plan would be served stale pre-recalibration curves
        from there instead.  The retained previous plan (``reuse_levels``) is
        dropped with them — its allocations embed the same cost model.
        """
        self._curves.clear()
        self._previous_plan = None
        self.planner.estimator.clear_cache()

    # -------------------------------------------------------------- internals
    def _harvest(self, plan: ExecutionPlan) -> None:
        for index, curve in plan.curves.items():
            # MetaOp.curve_key is cached on the MetaOp, so harvesting after
            # planning reuses the keys the estimator already computed.
            key = plan.metagraph.metaop(index).curve_key
            self._curves[key] = curve
            self._curves.move_to_end(key)
        while len(self._curves) > self.max_curves:
            self._curves.popitem(last=False)

    def _account_savings(
        self, plan: ExecutionPlan, reused: int, estimated: int
    ) -> None:
        """Estimate the estimation-stage seconds avoided by curve reuse."""
        stage = plan.report.stage_seconds.get("scalability_estimation", 0.0)
        if estimated > 0:
            per_curve = stage / estimated
            self._last_estimation_cost = per_curve
        else:
            per_curve = self._last_estimation_cost or 0.0
        self.stats.estimation_seconds_saved += per_curve * reused
