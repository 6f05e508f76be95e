"""Dynamic multi-task workloads: task arrival and departure (Appendix D).

MT MM training workloads change over time — tasks with little data exit early,
new tasks join partway through training.  Appendix D simulates this by
altering the training task set at fixed points; each system re-plans (Spindle
regenerates its execution plan, paying the planner cost) and continues
training.  The runner below reproduces that methodology and yields the
cumulative training-time curves of Fig. 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.baselines.base import TrainingSystem
from repro.graph.task import SpindleTask
from repro.service.cache import PlanCache
from repro.summation import left_sum


class DynamicWorkloadError(Exception):
    """Raised for malformed dynamic workload schedules."""


@dataclass(frozen=True)
class WorkloadPhase:
    """A contiguous stretch of training with a fixed task set."""

    name: str
    task_names: tuple[str, ...]
    num_iterations: int

    def __post_init__(self) -> None:
        if not self.task_names:
            raise DynamicWorkloadError(f"Phase {self.name!r} has no tasks")
        if self.num_iterations <= 0:
            raise DynamicWorkloadError(
                f"Phase {self.name!r} must run at least one iteration"
            )


@dataclass
class DynamicWorkloadSchedule:
    """A task pool and the sequence of phases drawn from it."""

    task_pool: dict[str, SpindleTask]
    phases: list[WorkloadPhase] = field(default_factory=list)

    @classmethod
    def from_tasks(
        cls, tasks: Sequence[SpindleTask], phases: Sequence[tuple[Sequence[str], int]]
    ) -> "DynamicWorkloadSchedule":
        """Build a schedule from ``(task_names, num_iterations)`` pairs."""
        pool = {task.name: task for task in tasks}
        schedule = cls(task_pool=pool)
        for index, (names, iterations) in enumerate(phases):
            schedule.add_phase(f"phase{index}", names, iterations)
        return schedule

    def add_phase(
        self, name: str, task_names: Sequence[str], num_iterations: int
    ) -> WorkloadPhase:
        unknown = [n for n in task_names if n not in self.task_pool]
        if unknown:
            raise DynamicWorkloadError(f"Unknown tasks in phase {name!r}: {unknown}")
        phase = WorkloadPhase(
            name=name, task_names=tuple(task_names), num_iterations=num_iterations
        )
        self.phases.append(phase)
        return phase

    def tasks_for(self, phase: WorkloadPhase) -> list[SpindleTask]:
        return [self.task_pool[name] for name in phase.task_names]

    @property
    def total_iterations(self) -> int:
        return sum(p.num_iterations for p in self.phases)

    def phase_boundaries(self) -> list[tuple[int, WorkloadPhase]]:
        """``(start_iteration, phase)`` pairs, in schedule order.

        The first phase starts at iteration 0; each subsequent phase starts
        where its predecessor ends.  This is the hand-off point to the unified
        runtime: :meth:`repro.unified.UnifiedScenario.from_dynamic` turns
        every boundary after the first into a ``phase_change`` workload event
        at exactly this iteration.
        """
        boundaries = []
        start = 0
        for phase in self.phases:
            boundaries.append((start, phase))
            start += phase.num_iterations
        return boundaries


@dataclass
class PhaseResult:
    """Outcome of one phase for one system."""

    phase: WorkloadPhase
    iteration_time: float
    replanning_seconds: float

    @property
    def phase_time(self) -> float:
        return self.replanning_seconds + self.iteration_time * self.phase.num_iterations


@dataclass
class DynamicRunResult:
    """Total-training-time curve of one system on a dynamic workload."""

    system_name: str
    phase_results: list[PhaseResult] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return left_sum(p.phase_time for p in self.phase_results)

    def cumulative_curve(self) -> list[tuple[int, float]]:
        """``(cumulative_iterations, cumulative_time)`` points, one per phase."""
        curve = []
        iterations = 0
        elapsed = 0.0
        for result in self.phase_results:
            iterations += result.phase.num_iterations
            elapsed += result.phase_time
            curve.append((iterations, elapsed))
        return curve


class DynamicWorkloadRunner:
    """Runs a system through a dynamic workload schedule, re-planning per phase.

    Re-planning cost is only charged at phase boundaries where the task set
    actually changed: a system keeps using its current plan — and therefore
    its current iteration time — across phases with an identical task set, so
    the simulation does not re-run (or re-plan) such phases at all.

    With a ``plan_cache``, systems that support cached planning (an attachable
    ``plan_cache`` attribute, i.e. Spindle) additionally skip re-planning for
    any *previously seen* task set — the recurring-phase pattern of Fig. 13 —
    paying the planner cost only on first encounter.
    """

    def __init__(
        self,
        schedule: DynamicWorkloadSchedule,
        plan_cache: PlanCache | None = None,
    ) -> None:
        if not schedule.phases:
            raise DynamicWorkloadError("Schedule has no phases")
        self.schedule = schedule
        self.plan_cache = plan_cache

    def run(self, system: TrainingSystem) -> DynamicRunResult:
        attach_cache = self.plan_cache is not None and hasattr(system, "plan_cache")
        previous_cache = getattr(system, "plan_cache", None) if attach_cache else None
        if attach_cache:
            system.plan_cache = self.plan_cache
        try:
            return self._run(system)
        finally:
            if attach_cache:
                system.plan_cache = previous_cache

    def _run(self, system: TrainingSystem) -> DynamicRunResult:
        result = DynamicRunResult(system_name=system.name)
        previous_task_set: frozenset[str] | None = None
        for phase in self.schedule.phases:
            task_set = frozenset(phase.task_names)
            changed = previous_task_set is None or task_set != previous_task_set
            previous_task_set = task_set
            if changed:
                iteration = system.run_iteration(self.schedule.tasks_for(phase))
                iteration_time = iteration.iteration_time
                replanning = system.last_planning_seconds
            else:
                # Identical task set: the system keeps its current plan, so
                # the previous phase's iteration time carries over and no
                # re-planning cost is paid.
                iteration_time = result.phase_results[-1].iteration_time
                replanning = 0.0
            result.phase_results.append(
                PhaseResult(
                    phase=phase,
                    iteration_time=iteration_time,
                    replanning_seconds=replanning,
                )
            )
        return result

    def run_all(self, systems: Sequence[TrainingSystem]) -> dict[str, DynamicRunResult]:
        return {system.name: self.run(system) for system in systems}
