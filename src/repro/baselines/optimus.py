"""Spindle-Optimus: workload-aware task-level resource allocation (§5.1).

Inspired by the Optimus cluster scheduler, this baseline allocates devices to
whole tasks by the marginal gain ``(T(n) - T(n')) / (n' - n)`` — the reduction
in task completion time per additional device — and then runs all tasks
concurrently, each on its own device block.  It is inter-task heterogeneity
aware but blind to the workload variation inside a task, which is what limits
it relative to Spindle's operator-level strategy.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.base import SystemCapabilities, TrainingSystem
from repro.core.allocator import default_valid_allocations
from repro.core.metagraph import MetaOp
from repro.graph.task import SpindleTask
from repro.runtime.results import IterationResult, TimeBreakdown
from repro.summation import left_sum


class SpindleOptimusSystem(TrainingSystem):
    """Greedy marginal-gain task-level allocation; tasks run concurrently."""

    name = "spindle-optimus"
    capabilities = SystemCapabilities(inter_task_aware=True, intra_task_aware=False)

    def run_iteration(self, tasks: Sequence[SpindleTask]) -> IterationResult:
        if not tasks:
            raise ValueError("At least one task is required")
        graph = self._unified_graph(tasks)
        metaop_labels = self._metaop_labels(graph)
        num_devices = self.cluster.num_devices

        rounds = self._split_into_rounds(tasks, num_devices)
        trace = self._new_trace()
        compute_total = 0.0
        all_allocations: dict[str, int] = {}
        task_devices: dict[str, list[int]] = {}
        for round_tasks in rounds:
            allocations = self.allocate(round_tasks, num_devices)
            devices = self._assign_device_blocks(round_tasks, allocations)
            all_allocations.update(allocations)
            task_devices.update(devices)

            round_duration = 0.0
            for task in round_tasks:
                task_block = devices[task.name]
                n = len(task_block)
                task_graph = graph.task_subgraph(task.name)
                op_start = compute_total
                for name in task_graph.topological_order():
                    op = task_graph.operator(name)
                    duration = self.timing_model.operator_time(op, n)
                    self._record_operator(
                        trace,
                        op,
                        task_block,
                        start=op_start,
                        duration=duration,
                        metaop_index=metaop_labels.get(name),
                    )
                    op_start += duration
                round_duration = max(round_duration, op_start - compute_total)
            compute_total += round_duration

        sync = self.parameter_sync_time(tasks, task_devices)
        iteration_time = compute_total + sync
        trace.end_time = max(trace.end_time, iteration_time)

        breakdown = TimeBreakdown(
            forward_backward=compute_total, param_sync=sync, send_recv=0.0
        )
        return IterationResult(
            iteration_time=iteration_time,
            breakdown=breakdown,
            trace=trace,
            device_memory_bytes=self.device_memory(tasks, task_devices),
            num_waves=len(rounds),
            metadata={
                "system": self.name,
                "task_allocations": all_allocations,
            },
        )

    def _split_into_rounds(
        self, tasks: Sequence[SpindleTask], num_devices: int
    ) -> list[list[SpindleTask]]:
        """Partition tasks into rounds when there are more tasks than devices.

        Task-level allocation needs at least one device per concurrently
        running task, so on small clusters the tasks are balanced (by total
        FLOPs) across ``ceil(T / N)`` sequential rounds.
        """
        num_rounds = -(-len(tasks) // num_devices)
        if num_rounds == 1:
            return [list(tasks)]
        rounds: list[list[SpindleTask]] = [[] for _ in range(num_rounds)]
        loads = [0.0] * num_rounds
        for task in sorted(tasks, key=lambda t: t.flops, reverse=True):
            lightest = min(range(num_rounds), key=lambda i: loads[i])
            rounds[lightest].append(task)
            loads[lightest] += task.flops
        return [r for r in rounds if r]

    # ----------------------------------------------------------------- helpers
    def task_completion_time(self, task: SpindleTask, n_devices: int) -> float:
        """Completion time of one task executed entirely on ``n_devices``."""
        return left_sum(
            self.timing_model.operator_time(op, n_devices) for op in task.operators
        )

    def _valid_task_allocations(self, task: SpindleTask, num_devices: int) -> list[int]:
        proxy = MetaOp(index=0, operators=[task.operators[0]])
        return default_valid_allocations(proxy, num_devices)

    def allocate(self, tasks: Sequence[SpindleTask], num_devices: int) -> dict[str, int]:
        """Greedy marginal-gain allocation of devices to tasks."""
        if len(tasks) > num_devices:
            raise ValueError(
                f"Task-level allocation needs at least one device per task: "
                f"{len(tasks)} tasks on {num_devices} devices"
            )
        allocations = {task.name: 1 for task in tasks}
        remaining = num_devices - len(tasks)
        valid = {
            task.name: self._valid_task_allocations(task, num_devices)
            for task in tasks
        }
        times = {
            task.name: self.task_completion_time(task, 1) for task in tasks
        }
        task_by_name = {task.name: task for task in tasks}

        while remaining > 0:
            best_name = None
            best_gain = 0.0
            best_next = None
            for name, current in allocations.items():
                upgrades = [
                    n for n in valid[name] if current < n <= current + remaining
                ]
                if not upgrades:
                    continue
                nxt = min(upgrades)
                new_time = self.task_completion_time(task_by_name[name], nxt)
                gain = (times[name] - new_time) / (nxt - current)
                if gain > best_gain:
                    best_gain, best_name, best_next = gain, name, nxt
            if best_name is None or best_gain <= 0:
                break
            remaining -= best_next - allocations[best_name]
            allocations[best_name] = best_next
            times[best_name] = self.task_completion_time(
                task_by_name[best_name], best_next
            )
        return allocations

    def _assign_device_blocks(
        self, tasks: Sequence[SpindleTask], allocations: dict[str, int]
    ) -> dict[str, list[int]]:
        """Assign contiguous device blocks to tasks, heaviest tasks first."""
        order = sorted(tasks, key=lambda t: allocations[t.name], reverse=True)
        cursor = 0
        blocks: dict[str, list[int]] = {}
        for task in order:
            n = allocations[task.name]
            blocks[task.name] = list(range(cursor, cursor + n))
            cursor += n
        return blocks
