"""DistMM-MT: intra-task tower-level allocation, sequential tasks (§5.1).

DistMM accelerates single-task multi-modal training by allocating appropriate
resources to the different multi-tower modality encoders of the task.  The
multi-task extension evaluated in the paper (DistMM-MT) applies this strategy
to every task independently and then executes the tasks sequentially, so it is
intra-task heterogeneity aware but not inter-task aware.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.base import SystemCapabilities, TrainingSystem
from repro.graph.graph import ComputationGraph
from repro.graph.ops import Operator
from repro.graph.task import SpindleTask
from repro.runtime.results import IterationResult, TimeBreakdown
from repro.summation import left_sum


class DistMMMTSystem(TrainingSystem):
    """Tower-level resource allocation within each task, tasks run one by one."""

    name = "distmm-mt"
    capabilities = SystemCapabilities(inter_task_aware=False, intra_task_aware=True)

    def run_iteration(self, tasks: Sequence[SpindleTask]) -> IterationResult:
        if not tasks:
            raise ValueError("At least one task is required")
        graph = self._unified_graph(tasks)
        metaop_labels = self._metaop_labels(graph)
        trace = self._new_trace()
        num_devices = self.cluster.num_devices
        all_devices = list(range(num_devices))

        current_time = 0.0
        compute_total = 0.0
        operator_devices: dict[str, list[int]] = {}
        for task in tasks:
            task_graph = graph.task_subgraph(task.name)
            towers, dependents = self._split_towers(task_graph)
            allocations = self._allocate_towers(task, towers, num_devices)

            # Phase 1: the independent towers run concurrently on their shares.
            tower_phase = 0.0
            cursor = 0
            for tower_ops, n in zip(towers, allocations):
                devices = all_devices[cursor : cursor + n]
                cursor += n
                tower_time = 0.0
                op_start = current_time
                for op in tower_ops:
                    duration = self.timing_model.operator_time(op, n)
                    self._record_operator(
                        trace,
                        op,
                        devices,
                        start=op_start,
                        duration=duration,
                        metaop_index=metaop_labels.get(op.name),
                    )
                    operator_devices[op.name] = devices
                    op_start += duration
                    tower_time += duration
                tower_phase = max(tower_phase, tower_time)
            current_time += tower_phase
            compute_total += tower_phase

            # Phase 2: the dependent (cross-modal) operators run on all devices.
            for op in dependents:
                duration = self.timing_model.operator_time(op, num_devices)
                self._record_operator(
                    trace,
                    op,
                    all_devices,
                    start=current_time,
                    duration=duration,
                    metaop_index=metaop_labels.get(op.name),
                )
                operator_devices[op.name] = all_devices
                current_time += duration
                compute_total += duration

        task_devices = {task.name: all_devices for task in tasks}
        sync = self.parameter_sync_time(tasks, task_devices)
        iteration_time = current_time + sync
        trace.end_time = max(trace.end_time, iteration_time)

        breakdown = TimeBreakdown(
            forward_backward=compute_total, param_sync=sync, send_recv=0.0
        )
        return IterationResult(
            iteration_time=iteration_time,
            breakdown=breakdown,
            trace=trace,
            device_memory_bytes=self.device_memory(
                tasks, task_devices, operator_devices=operator_devices
            ),
            num_waves=len(tasks),
            metadata={"system": self.name},
        )

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _split_towers(
        task_graph: ComputationGraph,
    ) -> tuple[list[list[Operator]], list[Operator]]:
        """Separate the task's independent towers from the dependent tail.

        A tower is the chain of operators reachable from one task input before
        any operator with more than one predecessor (the fusion point); the
        remaining operators form the dependent cross-modal part executed after
        the towers.
        """
        towers: list[list[Operator]] = []
        tower_names: set[str] = set()
        for source in task_graph.sources():
            tower: list[Operator] = []
            name = source
            while True:
                tower.append(task_graph.operator(name))
                tower_names.add(name)
                successors = task_graph.successors(name)
                if len(successors) != 1:
                    break
                nxt = successors[0]
                if task_graph.in_degree(nxt) != 1:
                    break
                name = nxt
            towers.append(tower)
        dependents = [
            task_graph.operator(name)
            for name in task_graph.topological_order()
            if name not in tower_names
        ]
        return towers, dependents

    def _tower_time(self, tower: list[Operator], n_devices: int) -> float:
        return left_sum(self.timing_model.operator_time(op, n_devices) for op in tower)

    def _allocate_towers(
        self, task: SpindleTask, towers: list[list[Operator]], num_devices: int
    ) -> list[int]:
        """Split the cluster among the towers to balance their finish times.

        DistMM co-locates the encoders of one task and sizes their device
        groups so the towers finish together.  For the common two-tower case we
        search the valid split directly; larger tower counts fall back to a
        greedy assignment that always grows the currently-slowest tower.
        """
        if len(towers) == 1:
            return [num_devices]
        if len(towers) == 2:
            flops = [left_sum(op.flops for op in tower) for tower in towers]
            ideal0 = num_devices * flops[0] / max(1.0, left_sum(flops))
            best: tuple[tuple[float, float], list[int]] | None = None
            for n0 in range(1, num_devices):
                n1 = num_devices - n0
                phase = max(
                    self._tower_time(towers[0], n0), self._tower_time(towers[1], n1)
                )
                # Ties (e.g. launch-bound towers) fall back to the split closest
                # to the FLOP-proportional share.
                score = (phase, abs(n0 - ideal0))
                if best is None or score < best[0]:
                    best = (score, [n0, n1])
            assert best is not None
            return best[1]
        # Greedy: start every tower at one device, repeatedly grow the
        # currently-slowest tower while devices remain.
        shares = [1] * len(towers)
        remaining = num_devices - len(towers)
        while remaining > 0:
            slowest = max(
                range(len(towers)),
                key=lambda i: self._tower_time(towers[i], shares[i]),
            )
            shares[slowest] += 1
            remaining -= 1
        return shares
