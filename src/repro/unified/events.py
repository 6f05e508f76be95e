"""The unified event model: workload and cluster changes on one timeline.

The elastic subsystem (:mod:`repro.elastic.events`) models *substrate* change
— devices fail, nodes join, stragglers throttle — while the dynamic-workload
subsystem (:mod:`repro.dynamic.workload`) models *task-set* change through
phase schedules.  The unified runtime merges the two: a
:class:`UnifiedTimeline` carries both :class:`~repro.elastic.events.ClusterEvent`
and :class:`WorkloadEvent` entries, and the runner consumes them as one
ordered stream of instantaneous events applied to one shared state (the
operational-semantics framing of PAPERS.md: every entry executes atomically
against the ⟨cluster view, active task list⟩ state).

Ordering and tie-break rules (pinned by tests, documented in
``docs/events.md``):

1. Event groups are ordered by ``at_iteration`` ascending.
2. All events landing at one iteration form a **single group** — the runner
   makes one replan decision per group, never one per event.
3. Within a group, **cluster events apply before workload events** ("substrate
   first, then workload"): an arrival at the iteration of an island outage
   plans against the degraded cluster, which is the composed scenario this
   package exists to express.
4. Within each of the two halves, insertion order is preserved (stable sort),
   matching :class:`~repro.elastic.events.EventTimeline` semantics.

All generators are deterministic: identical arguments (including ``seed``)
produce identical timelines, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.cluster.device import DeviceSpec
from repro.elastic.events import (
    ClusterEvent,
    EventTimeline,
    flash_crowd_timeline,
    island_outage_timeline,
    rolling_straggler_timeline,
)


class UnifiedEventError(Exception):
    """Raised for malformed workload events or timelines."""


# --------------------------------------------------------------- event kinds
#: One or more tasks join the active set (appended in event order).
TASK_ARRIVAL = "task_arrival"
#: One or more active tasks leave (remaining order preserved).
TASK_DEPARTURE = "task_departure"
#: The active set is replaced wholesale by the named tasks, in the given
#: order.  This is the dynamic-workload phase transition, and the only kind
#: that can *reorder* the active list — which matters for incremental
#: replanning, because structural plan reuse is order-sensitive.
PHASE_CHANGE = "phase_change"

WORKLOAD_EVENT_KINDS = (TASK_ARRIVAL, TASK_DEPARTURE, PHASE_CHANGE)


@dataclass(frozen=True)
class WorkloadEvent:
    """One instantaneous change to the active task set.

    ``task_names`` reference tasks in the scenario's task pool; semantics per
    kind are documented on the kind constants.  Events are value objects —
    deterministic, hashable, and serialized verbatim into canonical run
    reports via :meth:`to_document`.
    """

    kind: str
    at_iteration: int
    task_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_EVENT_KINDS:
            raise UnifiedEventError(
                f"Unknown workload event kind {self.kind!r}; "
                f"expected one of {WORKLOAD_EVENT_KINDS}"
            )
        if self.at_iteration < 0:
            raise UnifiedEventError("at_iteration must be non-negative")
        if not self.task_names:
            raise UnifiedEventError(f"{self.kind} event names no tasks")
        if len(set(self.task_names)) != len(self.task_names):
            raise UnifiedEventError(
                f"{self.kind} event names duplicate tasks: {self.task_names}"
            )

    def describe(self) -> str:
        names = ", ".join(self.task_names)
        return f"@{self.at_iteration} {self.kind}: {names}"

    def to_document(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "at_iteration": self.at_iteration,
            "task_names": list(self.task_names),
        }


@dataclass(frozen=True)
class EventGroup:
    """All events of one iteration, split into their two halves.

    The runner applies ``cluster_events`` (in order) to the cluster view
    first, then ``workload_events`` (in order) to the active task list, then
    makes exactly one replan decision for the group.
    """

    at_iteration: int
    cluster_events: tuple[ClusterEvent, ...]
    workload_events: tuple[WorkloadEvent, ...]

    @property
    def num_events(self) -> int:
        return len(self.cluster_events) + len(self.workload_events)


class UnifiedTimeline:
    """An ordered stream of cluster and workload events.

    Internally keeps the two event classes in their native containers (the
    elastic :class:`EventTimeline` for cluster events, a stably sorted list
    for workload events) and merges them per iteration on demand — the
    ordering rules in the module docstring fall out of that representation.
    """

    def __init__(
        self,
        cluster_events: EventTimeline | None = None,
        workload_events: Sequence[WorkloadEvent] = (),
    ) -> None:
        # ``is None``, not ``or``: an empty timeline is falsy, and a caller's
        # fresh timeline must stay the one this timeline reads and extends.
        self.cluster_events = (
            cluster_events if cluster_events is not None else EventTimeline()
        )
        self._workload_events: list[WorkloadEvent] = []
        for event in workload_events:
            self.add_workload(event)

    # ------------------------------------------------------------ mutation
    def add_cluster(self, event: ClusterEvent) -> None:
        """Insert one cluster event (stable within its iteration)."""
        self.cluster_events.add(event)

    def add_workload(self, event: WorkloadEvent) -> None:
        """Insert one workload event (stable within its iteration)."""
        index = len(self._workload_events)
        while index > 0 and (
            self._workload_events[index - 1].at_iteration > event.at_iteration
        ):
            index -= 1
        self._workload_events.insert(index, event)

    def extend(self, other: "UnifiedTimeline") -> "UnifiedTimeline":
        """Merge ``other``'s events into this timeline (returns ``self``)."""
        for event in other.cluster_events:
            self.add_cluster(event)
        for event in other.workload_events:
            self.add_workload(event)
        return self

    # ----------------------------------------------------------- inspection
    @property
    def workload_events(self) -> tuple[WorkloadEvent, ...]:
        return tuple(self._workload_events)

    def __len__(self) -> int:
        return len(self.cluster_events) + len(self._workload_events)

    def __iter__(self) -> Iterator[EventGroup]:
        return iter(self.grouped_by_iteration())

    @property
    def last_iteration(self) -> int:
        """Iteration of the final event (0 on an empty timeline)."""
        last = 0
        for event in self.cluster_events:
            last = max(last, event.at_iteration)
        for event in self._workload_events:
            last = max(last, event.at_iteration)
        return last

    def grouped_by_iteration(self) -> list[EventGroup]:
        """One :class:`EventGroup` per distinct iteration, ascending."""
        cluster: dict[int, list[ClusterEvent]] = {}
        for event in self.cluster_events:
            cluster.setdefault(event.at_iteration, []).append(event)
        workload: dict[int, list[WorkloadEvent]] = {}
        for event in self._workload_events:
            workload.setdefault(event.at_iteration, []).append(event)
        groups = []
        for at_iteration in sorted(set(cluster) | set(workload)):
            groups.append(
                EventGroup(
                    at_iteration=at_iteration,
                    cluster_events=tuple(cluster.get(at_iteration, ())),
                    workload_events=tuple(workload.get(at_iteration, ())),
                )
            )
        return groups

    def to_document(self) -> dict[str, Any]:
        """Deterministic serialization (canonical-report embedding)."""
        return {
            "cluster_events": [e.to_document() for e in self.cluster_events],
            "workload_events": [e.to_document() for e in self._workload_events],
        }


# ------------------------------------------------- composed scenario builders
def arrival_during_outage_timeline(
    arriving_tasks: Sequence[str],
    outage_node: int,
    devices_per_node: int,
    at_iteration: int,
    recovery_at: int | None = None,
) -> UnifiedTimeline:
    """A job arrives in the same iteration an island goes dark.

    The tie-break rule makes the composition well-defined: the outage applies
    first, so the arrival is planned against the degraded cluster.  With
    ``recovery_at`` the island heals later, exercising the plan cache on the
    healed substrate with the *new* task set.
    """
    timeline = UnifiedTimeline(
        cluster_events=island_outage_timeline(
            node=outage_node,
            devices_per_node=devices_per_node,
            at_iteration=at_iteration,
            recovery_at=recovery_at,
        )
    )
    timeline.add_workload(
        WorkloadEvent(TASK_ARRIVAL, at_iteration=at_iteration, task_names=tuple(arriving_tasks))
    )
    return timeline


def flash_crowd_on_degraded_timeline(
    arriving_tasks: Sequence[str],
    num_new_nodes: int,
    devices_per_node: int,
    spec: DeviceSpec,
    num_nodes: int,
    total_iterations: int,
    straggler_episodes: int = 2,
    seed: int = 0,
    arrival_iteration: int | None = None,
    crowd_iteration: int | None = None,
) -> UnifiedTimeline:
    """A task flash crowd lands on a cluster already limping on stragglers.

    Rolling straggler episodes degrade the substrate from iteration 0; at
    ``crowd_iteration`` (default: 40% through the run) ``num_new_nodes`` join,
    and at ``arrival_iteration`` (default: the same iteration) the new tasks
    arrive — capacity and demand spike together, on a degraded base.
    """
    if crowd_iteration is None:
        crowd_iteration = max(1, (total_iterations * 2) // 5)
    if arrival_iteration is None:
        arrival_iteration = crowd_iteration
    timeline = UnifiedTimeline(
        cluster_events=rolling_straggler_timeline(
            num_nodes=num_nodes,
            total_iterations=total_iterations,
            num_episodes=straggler_episodes,
            seed=seed,
        )
    )
    for event in flash_crowd_timeline(
        at_iteration=crowd_iteration,
        num_new_nodes=num_new_nodes,
        devices_per_node=devices_per_node,
        spec=spec,
    ):
        timeline.add_cluster(event)
    timeline.add_workload(
        WorkloadEvent(
            TASK_ARRIVAL,
            at_iteration=arrival_iteration,
            task_names=tuple(arriving_tasks),
        )
    )
    return timeline


def job_churn_timeline(
    active_tasks: Sequence[str],
    replacements: Sequence[tuple[str, str]],
    at_iterations: Sequence[int],
) -> UnifiedTimeline:
    """Jobs resubmitted in place: each churn swaps one active task for another.

    Each ``(old_name, new_name)`` pair at the matching iteration emits a
    :data:`PHASE_CHANGE` event carrying the *full* active list with the old
    task replaced **in position**.  In-place replacement (rather than a
    departure + appended arrival) preserves the task order, which is what
    lets incremental replanning adopt the previous plan's structure wholesale
    when the replacement job is architecturally identical.
    """
    if len(replacements) != len(at_iterations):
        raise UnifiedEventError("replacements and at_iterations must align")
    active = list(active_tasks)
    timeline = UnifiedTimeline()
    for (old_name, new_name), at_iteration in zip(replacements, at_iterations):
        if old_name not in active:
            raise UnifiedEventError(
                f"churn replaces {old_name!r}, which is not active at that point"
            )
        active[active.index(old_name)] = new_name
        timeline.add_workload(
            WorkloadEvent(
                PHASE_CHANGE, at_iteration=at_iteration, task_names=tuple(active)
            )
        )
    return timeline
