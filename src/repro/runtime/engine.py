"""The Spindle runtime engine (§3.6), simulated.

The engine operates in the paper's four steps:

1. **Localization** — the execution plan is localized to each device: every
   device instantiates the MetaOp slices assigned to it in each wave.
2. **Intra-task data dependency** — transmission operators are inserted at
   wave boundaries to move activations/gradients between MetaOp slices.
3. **Inter-task model dependency** — the parameter device group pool is built
   so shared parameters are synchronised across the tasks that activate them.
4. **Training step** — each iteration executes wave by wave (forward and
   backward), transmits inter-wave data flows, and finishes with group-wise
   parameter synchronisation.

Steps 1-3 are plan analyses; step 4 is delegated to the discrete-event
:class:`~repro.runtime.simulator.WaveExecutionSimulator`, our substitute for
the physical GPU cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.plan import ExecutionPlan
from repro.costmodel.timing import ExecutionTimeModel, TimingModelConfig
from repro.runtime.param_groups import ParameterDeviceGroupPool
from repro.runtime.results import IterationResult, TrainingRunResult
from repro.runtime.simulator import WaveExecutionSimulator
from repro.runtime.transmission import TransmissionOp, build_transmissions


@dataclass(frozen=True)
class LocalMetaOpSlice:
    """A MetaOp slice instantiated on one device in one wave."""

    wave_index: int
    metaop_index: int
    operator_names: tuple[str, ...]
    n_devices: int

    @property
    def num_operators(self) -> int:
        return len(self.operator_names)


@dataclass
class LocalProgram:
    """The per-device localized execution plan (step 1 of §3.6)."""

    device_id: int
    slices: list[LocalMetaOpSlice] = field(default_factory=list)

    @property
    def num_waves(self) -> int:
        return len({s.wave_index for s in self.slices})


class RuntimeEngine:
    """Instantiates and executes a Spindle execution plan."""

    def __init__(
        self,
        plan: ExecutionPlan,
        timing_config: TimingModelConfig | None = None,
        include_backward_transmissions: bool = True,
    ) -> None:
        self.plan = plan
        self.timing_model = ExecutionTimeModel(plan.cluster, timing_config)
        self._transmissions = build_transmissions(
            plan, include_backward=include_backward_transmissions
        )
        self._param_pool = ParameterDeviceGroupPool.from_plan(plan)
        self._simulator = WaveExecutionSimulator(
            plan=plan,
            timing_model=self.timing_model,
            transmissions=self._transmissions,
            param_pool=self._param_pool,
        )

    # ------------------------------------------------------------- step 1
    def _localize(self) -> dict[int, LocalProgram]:
        programs = {
            device.device_id: LocalProgram(device_id=device.device_id)
            for device in self.plan.cluster.devices
        }
        for wave in self.plan.waves:
            for entry in wave.entries:
                metaop = self.plan.metagraph.metaop(entry.metaop_index)
                operators = metaop.operator_slice(entry.operator_offset, entry.layers)
                devices = self.plan.placement.devices_for(
                    wave.index, entry.metaop_index
                )
                local_slice = LocalMetaOpSlice(
                    wave_index=wave.index,
                    metaop_index=entry.metaop_index,
                    operator_names=tuple(op.name for op in operators),
                    n_devices=entry.n_devices,
                )
                for device in devices:
                    programs[device].slices.append(local_slice)
        return programs

    # -------------------------------------------------------------- accessors
    @cached_property
    def local_programs(self) -> dict[int, LocalProgram]:
        """Per-device localized programs (step 1), built on first read.

        Simulation never reads them, so an engine that only simulates does
        not pay a pass over every device of every wave entry.
        """
        return self._localize()

    @property
    def transmissions(self) -> list[TransmissionOp]:
        """Inter-wave transmission operators (step 2)."""
        return self._transmissions

    @property
    def parameter_pool(self) -> ParameterDeviceGroupPool:
        """Parameter device group pool (step 3)."""
        return self._param_pool

    # ------------------------------------------------------------- step 4
    def run_iteration(self) -> IterationResult:
        """Simulate one training iteration of the execution plan."""
        return self._simulator.run_iteration()

    def run(self, num_iterations: int, planning_seconds: float = 0.0) -> TrainingRunResult:
        """Simulate ``num_iterations`` identical training iterations."""
        if num_iterations <= 0:
            raise ValueError("num_iterations must be positive")
        result = self.run_iteration()
        # Iterations of a static workload are identical in the simulator, so
        # the per-iteration result is reused rather than recomputed.
        return TrainingRunResult(
            iteration_results=[result] * num_iterations,
            planning_seconds=planning_seconds,
        )
