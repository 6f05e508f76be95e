"""The event-driven runtime: one replanning loop over workload + cluster events.

:class:`UnifiedRunner` is the reproduction's one replanning loop.  It
consumes a :class:`~repro.unified.events.UnifiedTimeline` against one shared
state — the :class:`~repro.elastic.view.ElasticClusterView` plus the ordered
active task list.  An elastic run (a fixed task set on a changing cluster) is
a scenario whose timeline holds cluster events only; a dynamic phase schedule
is lifted in by :meth:`UnifiedScenario.from_dynamic`.  Per event group (see
``docs/events.md`` for ordering rules) it

1. applies the group's cluster events to the view and derives a snapshot,
2. applies the group's workload events to the active task list,
3. makes one replan decision: capacity loss **or a task-set change** forces a
   replan (the old plan schedules the wrong tasks); otherwise the
   :class:`~repro.elastic.policy.ReplanPolicy` decides,
4. routes replans through per-topology
   :class:`~repro.service.incremental.IncrementalPlanner` instances — with
   ``reuse_levels=True`` in incremental mode, so structurally unchanged
   MetaLevels (or entire plans, on in-place job churn) are adopted instead of
   re-solved — and a fingerprint-keyed plan cache, which runs may share,
5. charges the switch with the elastic cost models
   (:class:`~repro.elastic.migration.MigrationCostModel`,
   :class:`~repro.elastic.migration.ReplanCostModel`).

Without a replan, training continues on the old plan: a degraded substrate
multiplies the iteration time by the pacing ratio of the devices the plan
runs on (a straggler throttling its node to 50% doubles it), while added
capacity idles until a replan adopts it.

**Determinism.** Identical scenarios and seeds produce byte-identical
canonical reports (:meth:`UnifiedRunResult.to_document`): measured planner
wall-clock and reuse tier counters stay out-of-band.  In particular the
report is *mode-independent* — ``incremental=True`` and ``incremental=False``
runs serialize identically, which is the full-replan equivalence reference
the tests pin.  Replan latency lands in the
``elastic.replan_seconds{policy=...}`` histograms either way, which is what
``benchmarks/bench_unified_runtime.py`` gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.cluster.device import DeviceSpec
from repro.cluster.topology import ClusterTopology
from repro.core.plan import ExecutionPlan
from repro.core.planner import ExecutionPlanner
from repro.dynamic.workload import DynamicWorkloadSchedule
from repro.elastic.events import CAPACITY_LOSS_KINDS, ClusterEvent, EventTimeline
from repro.elastic.migration import (
    MigrationCostModel,
    MigrationReport,
    ReplanCostModel,
)
from repro.elastic.policy import ReplanContext, ReplanPolicy, SlowdownThresholdPolicy
from repro.elastic.view import ElasticClusterView, ElasticSnapshot
from repro.graph.task import SpindleTask
from repro.obs import get_metrics, get_tracer
from repro.runtime.engine import RuntimeEngine
from repro.service.cache import PlanCache
from repro.service.fingerprint import fingerprint_workload
from repro.service.incremental import IncrementalPlanner
from repro.summation import left_sum
from repro.unified.events import (
    PHASE_CHANGE,
    TASK_ARRIVAL,
    TASK_DEPARTURE,
    EventGroup,
    UnifiedTimeline,
    WorkloadEvent,
)


class UnifiedRunError(Exception):
    """Raised for malformed unified scenarios or invalid event streams."""


def apply_workload_events(
    active: Sequence[str],
    events: Sequence[WorkloadEvent],
    pool: Sequence[str] | Mapping[str, Any],
) -> list[str]:
    """Fold workload events over an ordered active-task name list.

    Semantics per kind (deterministic, order-preserving):

    * ``task_arrival`` — names append to the end of the active list, in event
      order; arriving tasks must exist in the pool and not be active.
    * ``task_departure`` — names are removed; the remaining order is
      preserved; departing tasks must be active.
    * ``phase_change`` — the active list is **replaced** by the named tasks in
      the given order (the only kind that can reorder, and therefore the kind
      in-place job churn uses to keep plan structure adoptable).

    Raises :class:`UnifiedRunError` on any violation, including an active set
    that would become empty — the runtime always trains something.
    """
    result = list(active)
    for event in events:
        if event.kind == TASK_ARRIVAL:
            for name in event.task_names:
                if name not in pool:
                    raise UnifiedRunError(f"arrival of unknown task {name!r}")
                if name in result:
                    raise UnifiedRunError(
                        f"arrival of already-active task {name!r}"
                    )
                result.append(name)
        elif event.kind == TASK_DEPARTURE:
            for name in event.task_names:
                if name not in result:
                    raise UnifiedRunError(
                        f"departure of task {name!r}, which is not active"
                    )
                result.remove(name)
        elif event.kind == PHASE_CHANGE:
            unknown = [n for n in event.task_names if n not in pool]
            if unknown:
                raise UnifiedRunError(f"phase change to unknown tasks {unknown}")
            result = list(event.task_names)
        else:  # pragma: no cover - WorkloadEvent validates kinds
            raise UnifiedRunError(f"unhandled workload event kind {event.kind!r}")
        if not result:
            raise UnifiedRunError(
                f"workload event at iteration {event.at_iteration} empties "
                "the active task set"
            )
    return result


@dataclass
class UnifiedScenario:
    """A seeded unified scenario: cluster shape, task pool, one timeline.

    ``task_pool`` holds every task any event may reference;
    ``initial_tasks`` names the (ordered) active set at iteration 0.
    Construction validates the whole event stream up front — unknown names,
    duplicate arrivals, departures of inactive tasks and an emptied active
    set all fail here, not mid-run.
    """

    num_nodes: int
    devices_per_node: int
    device_spec: DeviceSpec
    timeline: UnifiedTimeline
    total_iterations: int
    task_pool: dict[str, SpindleTask]
    initial_tasks: tuple[str, ...]
    name: str = "unified"

    def __post_init__(self) -> None:
        if self.num_nodes <= 0 or self.devices_per_node <= 0:
            raise UnifiedRunError("cluster dimensions must be positive")
        if self.total_iterations <= 0:
            raise UnifiedRunError("total_iterations must be positive")
        if not self.task_pool:
            raise UnifiedRunError("task pool must not be empty")
        if not self.initial_tasks:
            raise UnifiedRunError("initial task set must not be empty")
        unknown = [n for n in self.initial_tasks if n not in self.task_pool]
        if unknown:
            raise UnifiedRunError(f"initial tasks not in pool: {unknown}")
        if len(set(self.initial_tasks)) != len(self.initial_tasks):
            raise UnifiedRunError("initial task names must be unique")
        if self.timeline.last_iteration >= self.total_iterations and len(
            self.timeline
        ):
            raise UnifiedRunError(
                f"events land at/after iteration {self.total_iterations}; "
                "the run never reaches them"
            )
        # Validate the full workload stream once, eagerly.
        active = list(self.initial_tasks)
        for group in self.timeline.grouped_by_iteration():
            active = apply_workload_events(
                active, group.workload_events, self.task_pool
            )

    @classmethod
    def from_dynamic(
        cls,
        schedule: DynamicWorkloadSchedule,
        num_nodes: int,
        devices_per_node: int,
        device_spec: DeviceSpec,
        cluster_events: EventTimeline | None = None,
        name: str = "unified-dynamic",
    ) -> "UnifiedScenario":
        """Lift a dynamic phase schedule into a unified scenario.

        Phase 0 becomes the initial task set; every later boundary of
        :meth:`~repro.dynamic.workload.DynamicWorkloadSchedule.phase_boundaries`
        becomes a ``phase_change`` event at its start iteration.  An optional
        elastic ``cluster_events`` timeline composes substrate change onto the
        same clock — the combination the separate runners could not express.
        """
        if not schedule.phases:
            raise UnifiedRunError("dynamic schedule has no phases")
        timeline = UnifiedTimeline(cluster_events=cluster_events)
        boundaries = schedule.phase_boundaries()
        for start, phase in boundaries[1:]:
            timeline.add_workload(
                WorkloadEvent(
                    PHASE_CHANGE, at_iteration=start, task_names=phase.task_names
                )
            )
        return cls(
            num_nodes=num_nodes,
            devices_per_node=devices_per_node,
            device_spec=device_spec,
            timeline=timeline,
            total_iterations=schedule.total_iterations,
            task_pool=dict(schedule.task_pool),
            initial_tasks=boundaries[0][1].task_names,
            name=name,
        )

    def build_view(self) -> ElasticClusterView:
        return ElasticClusterView(
            num_nodes=self.num_nodes,
            devices_per_node=self.devices_per_node,
            device_spec=self.device_spec,
        )


def _stay_slowdown(plan_snapshot: ElasticSnapshot, current: ElasticSnapshot) -> float:
    """Pacing penalty of keeping the old plan on the current substrate.

    The old plan's wave entries pace on their own device group's spec class,
    so a degradation slows the plan down by the worst *per-node* ratio of
    planned to current sustained throughput over the surviving planned
    nodes — a straggling device demotes only its own island's group.
    Capacity added elsewhere neither helps nor hurts until a replan adopts
    it.  On homogeneous substrates this equals the floor-to-floor ratio.
    """
    worst = 1.0
    for node_id in plan_snapshot.node_ids:
        current_spec = current.spec_of_node(node_id)
        if current_spec is None:
            continue
        planned_spec = plan_snapshot.spec_of_node(node_id)
        if planned_spec is None:  # pragma: no cover - planned nodes exist
            continue
        worst = max(
            worst, planned_spec.achievable_flops / current_spec.achievable_flops
        )
    return worst


@dataclass
class UnifiedReplanRecord:
    """Bookkeeping of one planner invocation (initial plan or replan).

    ``charged_seconds`` is the deterministic :class:`ReplanCostModel` figure
    that enters the timeline and the canonical report.  ``measured_seconds``
    (actual planner wall-clock) and ``levels_reused`` (MetaLevel allocations
    adopted by incremental replanning) are **out-of-band**: they are excluded
    from :meth:`to_document`, because canonical reports must be byte-identical
    across runs and between incremental and full-replan modes; read them from
    the result object.  All times are seconds.
    """

    charged_seconds: float
    measured_seconds: float
    cache_hit: bool
    num_metaops: int
    curves_reused: int
    curves_estimated: int
    levels_reused: int = 0

    def to_document(self) -> dict[str, Any]:
        return {
            "charged_seconds": self.charged_seconds,
            "cache_hit": self.cache_hit,
            "num_metaops": self.num_metaops,
            "curves_reused": self.curves_reused,
            "curves_estimated": self.curves_estimated,
        }


@dataclass
class UnifiedEventOutcome:
    """What happened at one event group of the unified timeline."""

    iteration: int
    cluster_events: tuple[ClusterEvent, ...]
    workload_events: tuple[WorkloadEvent, ...]
    forced: bool
    task_set_changed: bool
    replanned: bool
    estimated_slowdown: float
    stay_slowdown: float
    num_devices: int
    active_tasks: tuple[str, ...]
    topology_signature: str
    #: Canonical fingerprint of the plan active after this group (set on
    #: replans).  Derived purely from (tasks, topology, planner config), so it
    #: is identical across incremental and full-replan modes — which the
    #: equivalence tests assert outcome by outcome.
    plan_fingerprint: str | None = None
    replan: UnifiedReplanRecord | None = None
    migration: MigrationReport | None = None

    @property
    def overhead_seconds(self) -> float:
        """Replan + migration seconds charged at this event group."""
        seconds = 0.0
        if self.replan is not None:
            seconds += self.replan.charged_seconds
        if self.migration is not None:
            seconds += self.migration.total_seconds
        return seconds

    def to_document(self) -> dict[str, Any]:
        return {
            "iteration": self.iteration,
            "cluster_events": [e.to_document() for e in self.cluster_events],
            "workload_events": [e.to_document() for e in self.workload_events],
            "forced": self.forced,
            "task_set_changed": self.task_set_changed,
            "replanned": self.replanned,
            "estimated_slowdown": self.estimated_slowdown,
            "stay_slowdown": self.stay_slowdown,
            "num_devices": self.num_devices,
            "active_tasks": list(self.active_tasks),
            "topology_signature": self.topology_signature[:12],
            "plan_fingerprint": self.plan_fingerprint,
            "replan": self.replan.to_document() if self.replan else None,
            "migration": self.migration.to_document() if self.migration else None,
        }


@dataclass
class UnifiedSegment:
    """A contiguous stretch of iterations under one plan, substrate, task set."""

    start_iteration: int
    num_iterations: int
    iteration_seconds: float

    @property
    def seconds(self) -> float:
        return self.iteration_seconds * self.num_iterations

    def to_document(self) -> dict[str, Any]:
        return {
            "start_iteration": self.start_iteration,
            "num_iterations": self.num_iterations,
            "iteration_seconds": self.iteration_seconds,
            "seconds": self.seconds,
        }


@dataclass
class UnifiedRunResult:
    """Cumulative-training-time record of one unified run.

    ``baseline_iteration_seconds`` is the initial plan's simulated iteration
    time — the rate of a hypothetical run where neither the substrate nor the
    task set ever changes; ``cumulative_slowdown`` compares against it.
    ``mode`` records which planner path produced the plans and is excluded
    from :meth:`to_document`, whose output is identical across modes.
    """

    scenario_name: str
    policy: str
    mode: str
    total_iterations: int
    baseline_iteration_seconds: float
    segments: list[UnifiedSegment] = field(default_factory=list)
    outcomes: list[UnifiedEventOutcome] = field(default_factory=list)
    initial_plan: UnifiedReplanRecord | None = None

    # -------------------------------------------------------------- totals
    @property
    def baseline_seconds(self) -> float:
        return self.baseline_iteration_seconds * self.total_iterations

    @property
    def training_seconds(self) -> float:
        return left_sum(segment.seconds for segment in self.segments)

    @property
    def overhead_seconds(self) -> float:
        return left_sum(outcome.overhead_seconds for outcome in self.outcomes)

    @property
    def total_seconds(self) -> float:
        return self.training_seconds + self.overhead_seconds

    @property
    def cumulative_slowdown(self) -> float:
        return self.total_seconds / self.baseline_seconds

    @property
    def replan_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.replanned)

    @property
    def cache_hits(self) -> int:
        return sum(
            1
            for outcome in self.outcomes
            if outcome.replan is not None and outcome.replan.cache_hit
        )

    @property
    def task_set_changes(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.task_set_changed)

    @property
    def migration_bytes(self) -> float:
        """Bytes moved or restored over the run; not in :meth:`to_document`,
        which carries it per event in the migration documents."""
        return left_sum(
            outcome.migration.total_bytes
            for outcome in self.outcomes
            if outcome.migration is not None
        )

    @property
    def migration_seconds(self) -> float:
        return left_sum(
            outcome.migration.total_seconds
            for outcome in self.outcomes
            if outcome.migration is not None
        )

    @property
    def replan_charged_seconds(self) -> float:
        return left_sum(
            outcome.replan.charged_seconds
            for outcome in self.outcomes
            if outcome.replan is not None
        )

    @property
    def replan_measured_seconds(self) -> float:
        """Measured planner wall-clock (out-of-band; machine-dependent)."""
        return sum(
            outcome.replan.measured_seconds
            for outcome in self.outcomes
            if outcome.replan is not None
        )

    @property
    def levels_reused(self) -> int:
        """MetaLevel allocations adopted across all replans (out-of-band)."""
        total = 0
        for outcome in self.outcomes:
            if outcome.replan is not None:
                total += outcome.replan.levels_reused
        return total

    def to_document(self) -> dict[str, Any]:
        """Canonical, deterministic report: byte-identical for equal seeds
        *and* equal across incremental/full planner modes.

        Measured wall-clock, reuse tier counters (``levels_reused``) and
        ``mode`` are deliberately absent — they describe how fast planning
        was, never what was planned.
        """
        return {
            "scenario": self.scenario_name,
            "policy": self.policy,
            "total_iterations": self.total_iterations,
            "baseline_seconds": self.baseline_seconds,
            "training_seconds": self.training_seconds,
            "overhead_seconds": self.overhead_seconds,
            "total_seconds": self.total_seconds,
            "cumulative_slowdown": self.cumulative_slowdown,
            "replan_count": self.replan_count,
            "cache_hits": self.cache_hits,
            "task_set_changes": self.task_set_changes,
            "migration_seconds": self.migration_seconds,
            "replan_charged_seconds": self.replan_charged_seconds,
            "initial_plan": (
                self.initial_plan.to_document() if self.initial_plan else None
            ),
            "segments": [segment.to_document() for segment in self.segments],
            "events": [outcome.to_document() for outcome in self.outcomes],
        }


PlannerFactory = Callable[[ClusterTopology], ExecutionPlanner]


class UnifiedRunner:
    """Runs one unified scenario, replanning on substrate *or* task change.

    Parameters
    ----------
    scenario:
        Cluster shape, task pool and the unified event timeline.
    policy:
        Replan policy for non-forced groups (default: 10% slowdown
        threshold).  Capacity-loss cluster events and any task-set change
        bypass it.
    migration_model / replan_cost_model:
        Cost models for plan switches; defaults are shared across benchmarks.
    planner_factory:
        Builds the :class:`ExecutionPlanner` for a derived topology.  One
        :class:`IncrementalPlanner` wraps each distinct topology signature,
        so curve pools never leak across substrates yet warm up across
        *recurring* ones.
    plan_cache:
        Fingerprint-keyed cache shared across all topologies of the run.  A
        substrate that heals back to a known topology, or a phase change back
        to a structurally known task set (fingerprints are
        naming-insensitive), re-serves its plan without planning.  Pass one
        cache to several runners to share plans across runs: a later run
        then re-serves every plan an earlier one solved.
    incremental:
        ``True`` (default) plans with ``reuse_levels`` — structurally
        unchanged MetaLevels/plans are adopted.  ``False`` is the retained
        full-replan reference: same plans, same canonical report, more
        planner wall-clock.  The equivalence tests run every scenario in both
        modes and require identical fingerprints and documents.
    """

    def __init__(
        self,
        scenario: UnifiedScenario,
        policy: ReplanPolicy | None = None,
        migration_model: MigrationCostModel | None = None,
        replan_cost_model: ReplanCostModel | None = None,
        planner_factory: PlannerFactory | None = None,
        plan_cache: PlanCache | None = None,
        incremental: bool = True,
    ) -> None:
        self.scenario = scenario
        self.policy = policy or SlowdownThresholdPolicy()
        self.migration_model = migration_model or MigrationCostModel()
        self.replan_cost_model = replan_cost_model or ReplanCostModel()
        self.planner_factory = planner_factory or (
            lambda cluster: ExecutionPlanner(cluster)
        )
        # An empty cache is falsy (``PlanCache`` has ``__len__``), so test
        # for ``None``: a caller's fresh shared cache must not be replaced.
        self.plan_cache = (
            plan_cache if plan_cache is not None else PlanCache(capacity=64)
        )
        self.incremental = incremental
        self._planners: dict[str, IncrementalPlanner] = {}

    # ------------------------------------------------------------- public API
    def run(self) -> UnifiedRunResult:
        """Execute the scenario; deterministic for identical inputs."""
        scenario = self.scenario
        view = scenario.build_view()
        snapshot = view.snapshot()
        active = list(scenario.initial_tasks)
        plan, initial_record = self._plan(active, snapshot)
        iteration_seconds = self._iteration_seconds(plan)

        result = UnifiedRunResult(
            scenario_name=scenario.name,
            policy=self.policy.describe(),
            mode="incremental" if self.incremental else "full",
            total_iterations=scenario.total_iterations,
            baseline_iteration_seconds=iteration_seconds,
            initial_plan=initial_record,
        )

        cursor = 0
        stay_slowdown = 1.0
        pending_groups = 0
        last_replan_iteration = 0
        plan_snapshot = snapshot

        tracer = get_tracer()
        for group in scenario.timeline.grouped_by_iteration():
            self._append_segment(
                result, cursor, group.at_iteration, iteration_seconds * stay_slowdown
            )
            cursor = max(cursor, group.at_iteration)

            with tracer.span(
                "unified.event_group",
                category="unified",
                iteration=group.at_iteration,
                num_events=group.num_events,
            ) as group_span:
                # Ordering rule: substrate first, then workload — an arrival
                # composed with an outage plans against the degraded cluster.
                view.apply_all(group.cluster_events)
                new_snapshot = view.snapshot()
                new_active = apply_workload_events(
                    active, group.workload_events, scenario.task_pool
                )
                task_set_changed = tuple(new_active) != tuple(active)
                active = new_active
                pending_groups += 1
                forced = task_set_changed or any(
                    event.kind in CAPACITY_LOSS_KINDS
                    for event in group.cluster_events
                )
                stay = _stay_slowdown(plan_snapshot, new_snapshot)
                context = ReplanContext(
                    events=group.cluster_events,
                    old_topology=plan_snapshot.topology,
                    new_topology=new_snapshot.topology,
                    pending_groups=pending_groups,
                    iterations_since_replan=cursor - last_replan_iteration,
                    stay_slowdown=stay,
                )
                replanned = forced or self.policy.should_replan(context)
                group_span.set(
                    forced=forced,
                    replanned=replanned,
                    task_set_changed=task_set_changed,
                )
                outcome = UnifiedEventOutcome(
                    iteration=group.at_iteration,
                    cluster_events=group.cluster_events,
                    workload_events=group.workload_events,
                    forced=forced,
                    task_set_changed=task_set_changed,
                    replanned=replanned,
                    estimated_slowdown=context.estimated_slowdown,
                    stay_slowdown=1.0,
                    num_devices=new_snapshot.topology.num_devices,
                    active_tasks=tuple(active),
                    topology_signature=new_snapshot.signature,
                )
                if replanned:
                    new_plan, record = self._plan(active, new_snapshot)
                    outcome.replan = record
                    outcome.plan_fingerprint = new_plan.fingerprint
                    new_iteration_seconds = self._iteration_seconds(new_plan)
                    with tracer.span("unified.migration", category="unified"):
                        # Stable parameter-group keys make the diff well-
                        # defined across task-set changes: groups only the
                        # new plan holds restore from the checkpoint store,
                        # groups only the old plan held simply cease.
                        outcome.migration = self.migration_model.assess(
                            plan,
                            plan_snapshot,
                            new_plan,
                            new_snapshot,
                            at_iteration=group.at_iteration,
                            iteration_seconds=new_iteration_seconds,
                        )
                    plan = new_plan
                    plan_snapshot = new_snapshot
                    iteration_seconds = new_iteration_seconds
                    stay_slowdown = 1.0
                    pending_groups = 0
                    last_replan_iteration = cursor
                else:
                    stay_slowdown = stay
                    outcome.stay_slowdown = stay_slowdown
                result.outcomes.append(outcome)

        self._append_segment(
            result,
            cursor,
            scenario.total_iterations,
            iteration_seconds * stay_slowdown,
        )
        return result

    # -------------------------------------------------------------- internals
    def _planner_for(self, topology: ClusterTopology) -> IncrementalPlanner:
        signature = topology.signature()
        incremental = self._planners.get(signature)
        if incremental is None:
            incremental = IncrementalPlanner(
                self.planner_factory(topology), reuse_levels=self.incremental
            )
            self._planners[signature] = incremental
        return incremental

    def _plan(
        self, active: Sequence[str], snapshot: ElasticSnapshot
    ) -> tuple[ExecutionPlan, UnifiedReplanRecord]:
        """Plan the active task set on the snapshot's topology.

        The fingerprint-keyed cache is consulted first (hits charge the
        cache-hit cost); misses solve on the topology's planner and fill the
        cache.  Replans land in the ``elastic.replan_seconds{policy=...}``
        histogram and ``elastic.replans{outcome=...}`` counters (see
        ``docs/observability.md``).
        """
        tasks = tuple(self.scenario.task_pool[name] for name in active)
        incremental = self._planner_for(snapshot.topology)
        fingerprint = fingerprint_workload(
            tasks, incremental.planner.cluster, incremental.planner.config_signature()
        )
        cached = self.plan_cache.get(fingerprint)
        if cached is not None:
            get_metrics().inc("elastic.replans", outcome="cache_hit")
            return cached, self._cache_hit_record(cached)
        with get_tracer().timed(
            "unified.replan", category="unified", policy=self.policy.describe()
        ) as span:
            before_levels = incremental.stats.levels_reused
            plan = incremental.plan(tasks, fingerprint=fingerprint)
            self.plan_cache.put(fingerprint, plan)
            levels_reused = incremental.stats.levels_reused - before_levels
        measured = span.seconds
        metrics = get_metrics()
        metrics.observe(
            "elastic.replan_seconds", measured, policy=self.policy.describe()
        )
        metrics.inc("elastic.replans", outcome="planned")
        reused = plan.report.reused_curves
        estimated = plan.report.num_metaops - reused
        return plan, UnifiedReplanRecord(
            charged_seconds=self.replan_cost_model.charge(
                plan.report.num_metaops, estimated, cache_hit=False
            ),
            measured_seconds=measured,
            cache_hit=False,
            num_metaops=plan.report.num_metaops,
            curves_reused=reused,
            curves_estimated=estimated,
            levels_reused=levels_reused,
        )

    def _cache_hit_record(self, plan: ExecutionPlan) -> UnifiedReplanRecord:
        return UnifiedReplanRecord(
            charged_seconds=self.replan_cost_model.charge(
                plan.report.num_metaops, 0, cache_hit=True
            ),
            measured_seconds=0.0,
            cache_hit=True,
            num_metaops=plan.report.num_metaops,
            curves_reused=plan.report.num_metaops,
            curves_estimated=0,
        )

    @staticmethod
    def _iteration_seconds(plan: ExecutionPlan) -> float:
        return RuntimeEngine(plan).run_iteration().iteration_time

    @staticmethod
    def _append_segment(
        result: UnifiedRunResult,
        start: int,
        end: int,
        iteration_seconds: float,
    ) -> None:
        if end > start:
            result.segments.append(
                UnifiedSegment(
                    start_iteration=start,
                    num_iterations=end - start,
                    iteration_seconds=iteration_seconds,
                )
            )


__all__ = [
    "EventGroup",
    "UnifiedEventOutcome",
    "UnifiedReplanRecord",
    "UnifiedRunError",
    "UnifiedRunResult",
    "UnifiedRunner",
    "UnifiedScenario",
    "UnifiedSegment",
    "apply_workload_events",
]
