"""Common interface and shared machinery of the training systems under test.

Every system — Spindle itself and the four competitors of Tab. 1a — implements
:class:`TrainingSystem`: given a list of tasks it produces an
:class:`~repro.runtime.results.IterationResult` with the iteration time, the
time breakdown, a device-utilization trace and per-device memory, all measured
on the same simulated cluster and cost models so comparisons are apples to
apples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.topology import ClusterTopology
from repro.core.contraction import contract_graph
from repro.costmodel.comm import ring_allreduce_time
from repro.costmodel.memory import MemoryModel
from repro.costmodel.timing import ExecutionTimeModel, TimingModelConfig
from repro.graph.builder import build_unified_graph
from repro.graph.graph import ComputationGraph
from repro.graph.ops import Operator
from repro.graph.task import SpindleTask
from repro.runtime.param_groups import SYNC_OVERLAP_FRACTION
from repro.runtime.results import IterationResult
from repro.runtime.trace import UtilizationTrace


@dataclass(frozen=True)
class SystemCapabilities:
    """Heterogeneity awareness of a system (the rows of Tab. 1a)."""

    inter_task_aware: bool
    intra_task_aware: bool


class TrainingSystem(ABC):
    """A distributed training system evaluated on the simulated cluster."""

    name: str = "abstract"
    capabilities = SystemCapabilities(inter_task_aware=False, intra_task_aware=False)

    def __init__(
        self,
        cluster: ClusterTopology,
        timing_config: TimingModelConfig | None = None,
        memory_model: MemoryModel | None = None,
    ) -> None:
        self.cluster = cluster
        self.timing_model = ExecutionTimeModel(cluster, timing_config)
        self.memory_model = memory_model or MemoryModel()
        self.last_planning_seconds: float = 0.0

    # ------------------------------------------------------------- public API
    @abstractmethod
    def run_iteration(self, tasks: Sequence[SpindleTask]) -> IterationResult:
        """Simulate one training iteration of ``tasks`` on the cluster."""

    # ---------------------------------------------------------------- helpers
    def _unified_graph(self, tasks: Sequence[SpindleTask]) -> ComputationGraph:
        return build_unified_graph(list(tasks))

    def _metaop_labels(self, graph: ComputationGraph) -> dict[str, int]:
        """Map operator names to MetaOp indices (for comparable Fig. 9 traces)."""
        metagraph = contract_graph(graph)
        labels: dict[str, int] = {}
        for metaop in metagraph.metaops.values():
            for op in metaop.operators:
                labels[op.name] = metaop.index
        return labels

    def _new_trace(self) -> UtilizationTrace:
        return UtilizationTrace(
            num_devices=self.cluster.num_devices,
            peak_flops_per_device=self.cluster.max_peak_flops,
        )

    def _record_operator(
        self,
        trace: UtilizationTrace,
        op: Operator,
        devices: Sequence[int],
        start: float,
        duration: float,
        metaop_index: int | None,
    ) -> None:
        """Add one busy block for an operator executed by a device group."""
        if duration <= 0:
            return
        achieved = (1.0 + self.timing_model.config.backward_multiplier) * op.flops
        per_device = achieved / duration / max(1, len(devices))
        trace.add_block(
            devices,
            start=start,
            duration=duration,
            flops_per_second=per_device,
            metaop_index=metaop_index,
        )

    def parameter_sync_time(
        self,
        tasks: Sequence[SpindleTask],
        task_devices: dict[str, Sequence[int]],
    ) -> float:
        """Critical-path time of cross-task parameter synchronisation.

        Every shared parameter key is all-reduced across the union of the
        device groups of the tasks that activate it; task-local parameters are
        all-reduced within their task's own device group (plain data-parallel
        gradient synchronisation).  The critical path is the busiest device's
        accumulated synchronisation time, and the same backward-overlap credit
        used by the Spindle runtime engine is applied, so the accounting
        matches across systems.
        """
        key_devices: dict[str, set[int]] = {}
        key_bytes: dict[str, float] = {}
        anonymous: list[tuple[float, tuple[int, ...]]] = []
        for task in tasks:
            devices = tuple(task_devices[task.name])
            for op in task.operators:
                if op.param_bytes == 0:
                    continue
                if op.param_key is None:
                    anonymous.append((op.param_bytes, devices))
                    continue
                key_devices.setdefault(op.param_key, set()).update(devices)
                key_bytes[op.param_key] = max(
                    key_bytes.get(op.param_key, 0.0), op.param_bytes
                )

        per_device: dict[int, float] = {}

        def charge(volume: float, devices: Sequence[int]) -> None:
            group = sorted(set(devices))
            if len(group) <= 1 or volume <= 0:
                return
            link = self.cluster.group_bandwidth(group)
            time = ring_allreduce_time(volume, len(group), link)
            for device in group:
                per_device[device] = per_device.get(device, 0.0) + time

        # Group shared keys by their device group so each group pays a single
        # fused all-reduce, as NCCL communication groups would.
        grouped: dict[tuple[int, ...], float] = {}
        for key, devices in key_devices.items():
            group = tuple(sorted(devices))
            grouped[group] = grouped.get(group, 0.0) + key_bytes[key]
        for group, volume in grouped.items():
            charge(volume, group)
        for volume, devices in anonymous:
            charge(volume, devices)
        if not per_device:
            return 0.0
        return max(per_device.values()) * (1.0 - SYNC_OVERLAP_FRACTION)

    def device_memory(
        self,
        tasks: Sequence[SpindleTask],
        task_devices: dict[str, Sequence[int]],
        operator_devices: dict[str, Sequence[int]] | None = None,
    ) -> dict[int, float]:
        """Per-device memory footprint given each task's (or operator's) devices."""
        memory = {
            device.device_id: self.memory_model.framework_overhead()
            for device in self.cluster.devices
        }
        seen_param_keys: dict[int, set[str]] = {d: set() for d in memory}
        for task in tasks:
            for op in task.operators:
                if operator_devices is not None and op.name in operator_devices:
                    devices = list(operator_devices[op.name])
                else:
                    devices = list(task_devices[task.name])
                n = max(1, len(devices))
                params = self.memory_model.parameter_state_bytes(op, n)
                acts = self.memory_model.activation_bytes(op, n)
                for device in devices:
                    if op.param_key is None or op.param_key not in seen_param_keys[device]:
                        memory[device] += params
                        if op.param_key is not None:
                            seen_param_keys[device].add(op.param_key)
                    memory[device] += acts
        return memory
