"""Result types shared by the runtime engine and the baseline systems."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.runtime.trace import UtilizationTrace


@dataclass(frozen=True)
class TimeBreakdown:
    """Iteration time decomposition used by the Fig. 10 experiment."""

    forward_backward: float
    param_sync: float
    send_recv: float

    def __post_init__(self) -> None:
        for name, value in (
            ("forward_backward", self.forward_backward),
            ("param_sync", self.param_sync),
            ("send_recv", self.send_recv),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> float:
        return self.forward_backward + self.param_sync + self.send_recv

    def fraction(self, component: str) -> float:
        """Fraction of iteration time spent in ``component``."""
        total = self.total
        if total <= 0:
            return 0.0
        return getattr(self, component) / total


@dataclass
class IterationResult:
    """Outcome of simulating one training iteration."""

    iteration_time: float
    breakdown: TimeBreakdown
    trace: UtilizationTrace
    device_memory_bytes: Mapping[int, float] = field(default_factory=dict)
    num_waves: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def cluster_average_flops(self) -> float:
        return self.trace.cluster_average_flops()

    @property
    def peak_device_memory_bytes(self) -> float:
        if not self.device_memory_bytes:
            return 0.0
        return max(self.device_memory_bytes.values())


@dataclass
class TrainingRunResult:
    """Outcome of simulating several iterations (used by Appendix D)."""

    iteration_results: list[IterationResult] = field(default_factory=list)
    planning_seconds: float = 0.0

    @property
    def num_iterations(self) -> int:
        return len(self.iteration_results)

    @property
    def total_time(self) -> float:
        return self.planning_seconds + sum(
            r.iteration_time for r in self.iteration_results
        )

    @property
    def mean_iteration_time(self) -> float:
        if not self.iteration_results:
            return 0.0
        return sum(r.iteration_time for r in self.iteration_results) / len(
            self.iteration_results
        )
