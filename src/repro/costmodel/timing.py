"""Execution time model for operators under different device allocations.

This is the "ground truth" performance model of the simulated cluster.  Both
the synthetic profiler (which feeds the scalability estimator of §3.2) and the
runtime simulator charge operator execution using this model, so the planner is
evaluated against the same physics it planned for — exactly the relationship a
profiled real cluster has with its planner.

The model captures the three effects responsible for the heterogeneous
resource scalability shown in Fig. 4 of the paper:

* per-device compute shrinks as ``1/n`` (the ``beta' * w/n`` term of the
  piecewise alpha-beta model of Appendix A),
* per-kernel fixed overheads and shrinking kernel shapes put a floor on the
  achievable speed-up of lightweight operators (the ``alpha`` term, and the
  reason the pieces of the piecewise model differ),
* hybrid data/tensor parallel execution beyond the data-parallel limit adds a
  communication component that does not scale with ``n`` (the
  ``beta * c`` term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.topology import ClusterTopology
from repro.costmodel.comm import ring_allreduce_time
from repro.graph.ops import Operator


@dataclass(frozen=True)
class ParallelSplit:
    """How an operator allocated ``n`` devices is split into DP x TP ranks."""

    data_parallel: int
    tensor_parallel: int

    @property
    def world_size(self) -> int:
        return self.data_parallel * self.tensor_parallel


def split_allocation(batch_size: int, n_devices: int) -> ParallelSplit:
    """Derive the DP x TP split for ``n_devices`` given a global batch size.

    Devices are used for data parallelism first (cheapest), and for tensor
    parallelism only once the batch cannot be split further.  Allocations that
    do not divide the batch are still usable but leave the data-parallel ranks
    imbalanced; the imbalance penalty is charged by the execution time model
    (§3.3 motivates the valid-allocation rule exactly to avoid that penalty).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if n_devices <= 0:
        raise ValueError("n_devices must be positive")
    if n_devices <= batch_size:
        return ParallelSplit(data_parallel=n_devices, tensor_parallel=1)
    tp = n_devices // batch_size
    return ParallelSplit(data_parallel=batch_size, tensor_parallel=max(1, tp))


def data_parallel_imbalance(batch_size: int, data_parallel: int) -> float:
    """Slow-down factor of uneven sample partitioning across DP ranks.

    The slowest rank processes ``ceil(batch / dp)`` samples while a perfectly
    even split would process ``batch / dp``; the ratio is the wall-clock
    penalty of the imbalance (1.0 when ``dp`` divides the batch).
    """
    if data_parallel <= 0:
        raise ValueError("data_parallel must be positive")
    per_rank = math.ceil(batch_size / data_parallel)
    return per_rank * data_parallel / batch_size


@dataclass(frozen=True)
class TimingModelConfig:
    """Tunable constants of the execution time model.

    The defaults are calibrated so that, on the A800 cluster model, heavy
    vision/LM operators scale near-linearly to 32 GPUs while lightweight text /
    motion operators saturate around 2-4 GPUs, reproducing the qualitative
    behaviour of Fig. 4.
    """

    #: Fixed launch overhead charged per operator execution (seconds).  A
    #: transformer layer issues tens of kernels; when the per-device workload
    #: is small their launch latencies are no longer hidden, which is the
    #: ``alpha`` term of the piecewise alpha-beta model (Appendix A).
    kernel_launch_overhead: float = 1.2e-4
    #: Per-device forward FLOPs at which compute efficiency reaches 50%.
    efficiency_half_flops: float = 2.0e9
    #: Tokens per data-parallel replica below which kernel shapes degrade.
    token_knee: int = 1024
    #: Efficiency floor for degenerate kernel shapes.
    shape_efficiency_floor: float = 0.3
    #: Backward pass costs this multiple of the forward pass.
    backward_multiplier: float = 2.0
    #: Number of tensor-parallel activation all-reduces per layer and pass.
    tp_collectives_per_layer: int = 2


class ExecutionTimeModel:
    """Computes operator execution time ``T(n)`` on the simulated cluster."""

    def __init__(
        self,
        cluster: ClusterTopology,
        config: TimingModelConfig | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or TimingModelConfig()

    # ------------------------------------------------------------------ core
    def operator_time(
        self,
        op: Operator,
        n_devices: int,
        include_backward: bool = True,
        pacing_flops: float | None = None,
    ) -> float:
        """Forward (+ backward) execution time of one operator on ``n`` devices.

        ``pacing_flops`` is the sustained FLOP/s ceiling of the device group
        executing the operator — the slowest member of the group, since wave
        entries run in lockstep.  ``None`` (the default) paces on the cluster
        floor, the conservative pre-spec-class behaviour; the
        heterogeneity-aware planner passes each spec class's own ceiling.
        """
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        if pacing_flops is not None and pacing_flops <= 0:
            raise ValueError("pacing_flops must be positive")
        n_devices = min(n_devices, self.cluster.num_devices)
        split = split_allocation(op.batch_size, n_devices)
        passes = 1.0 + (self.config.backward_multiplier if include_backward else 0.0)

        compute = passes * self._compute_time(op, split, pacing_flops)
        comm = passes * self._tensor_parallel_comm_time(op, split)
        launch = self.config.kernel_launch_overhead * (2.0 if include_backward else 1.0)
        return launch + compute + comm

    def operators_time(
        self,
        ops: list[Operator],
        n_devices: int,
        include_backward: bool = True,
        pacing_flops: float | None = None,
    ) -> float:
        """Total sequential execution time of a chain of operators."""
        return sum(
            self.operator_time(
                op,
                n_devices,
                include_backward=include_backward,
                pacing_flops=pacing_flops,
            )
            for op in ops
        )

    # -------------------------------------------------------------- internals
    def _compute_time(
        self, op: Operator, split: ParallelSplit, pacing_flops: float | None = None
    ) -> float:
        imbalance = data_parallel_imbalance(op.batch_size, split.data_parallel)
        per_device_flops = op.flops / split.world_size * imbalance
        efficiency = self._efficiency(op, split, per_device_flops)
        # Wave entries execute in lockstep across their device group, so the
        # group is paced by its slowest device.  Without an explicit group
        # ceiling the cluster-wide floor is charged; on the homogeneous
        # clusters of the paper this is device_spec.achievable_flops.
        ceiling = (
            pacing_flops if pacing_flops is not None
            else self.cluster.min_achievable_flops
        )
        sustained = ceiling * efficiency
        return per_device_flops / sustained

    def _efficiency(
        self, op: Operator, split: ParallelSplit, per_device_flops: float
    ) -> float:
        """Fraction of the achievable throughput realised by this workload."""
        saturation = per_device_flops / (
            per_device_flops + self.config.efficiency_half_flops
        )
        tokens_per_replica = (
            op.input_spec.batch * op.input_spec.seq_len / split.data_parallel
        )
        shape = self._shape_efficiency(tokens_per_replica, split.tensor_parallel, op)
        return max(1e-3, saturation * shape)

    def _shape_efficiency(
        self, tokens_per_replica: float, tensor_parallel: int, op: Operator
    ) -> float:
        """Penalty for small matmul shapes (short sequences, thin TP slices)."""
        floor = self.config.shape_efficiency_floor
        token_ratio = min(1.0, tokens_per_replica / self.config.token_knee)
        token_eff = floor + (1.0 - floor) * math.sqrt(token_ratio)
        if tensor_parallel <= 1:
            return token_eff
        hidden = max(1, op.input_spec.hidden // tensor_parallel)
        hidden_ratio = min(1.0, hidden / 512.0)
        hidden_eff = floor + (1.0 - floor) * math.sqrt(hidden_ratio)
        return token_eff * hidden_eff

    def _tensor_parallel_comm_time(self, op: Operator, split: ParallelSplit) -> float:
        if split.tensor_parallel <= 1:
            return 0.0
        per_replica_activation = op.activation_bytes / max(1, split.data_parallel)
        volume = self.config.tp_collectives_per_layer * per_replica_activation
        return ring_allreduce_time(
            volume, split.tensor_parallel, self.cluster.intra_island
        )

    # --------------------------------------------------------------- utility
    def achieved_flops_per_second(
        self,
        op: Operator,
        n_devices: int,
        include_backward: bool = True,
        pacing_flops: float | None = None,
    ) -> float:
        """Aggregate FLOP/s achieved by the allocation (used for Fig. 9 traces)."""
        time = self.operator_time(
            op,
            n_devices,
            include_backward=include_backward,
            pacing_flops=pacing_flops,
        )
        return self.achieved_flops_for_time(op, time, include_backward=include_backward)

    def achieved_flops_for_time(
        self, op: Operator, time: float, include_backward: bool = True
    ) -> float:
        """:meth:`achieved_flops_per_second` given the operator's ``time``."""
        multiplier = 1.0 + (self.config.backward_multiplier if include_backward else 0.0)
        if time <= 0:
            return 0.0
        return multiplier * op.flops / time
