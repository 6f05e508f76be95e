"""Discrete-event simulation of wave-by-wave execution on the cluster.

This module substitutes the paper's physical testbed: it executes an
:class:`~repro.core.plan.ExecutionPlan` against the analytic cost models,
charging per-wave compute on the allocated device groups, inter-wave
transmission at wave boundaries, and group-wise parameter synchronisation at
the end of the iteration.  The same methodology backs the paper's own
larger-scale simulations (Appendix E).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import ExecutionPlan
from repro.costmodel.timing import ExecutionTimeModel
from repro.obs import get_metrics, get_tracer
from repro.runtime.param_groups import ParameterDeviceGroupPool
from repro.runtime.results import IterationResult, TimeBreakdown
from repro.runtime.trace import UtilizationTrace
from repro.runtime.transmission import TransmissionOp


@dataclass
class WaveSimulation:
    """Timing of one simulated wave."""

    wave_index: int
    start: float
    compute_duration: float
    boundary_duration: float

    @property
    def end(self) -> float:
        return self.start + self.compute_duration + self.boundary_duration


class WaveExecutionSimulator:
    """Simulates one training iteration of an execution plan."""

    def __init__(
        self,
        plan: ExecutionPlan,
        timing_model: ExecutionTimeModel,
        transmissions: list[TransmissionOp],
        param_pool: ParameterDeviceGroupPool,
    ) -> None:
        self.plan = plan
        self.timing_model = timing_model
        self.transmissions = transmissions
        self.param_pool = param_pool
        # Per-spec-class pacing rates: entries of a heterogeneity-aware plan
        # carry the spec class they were allocated on and are charged at that
        # class's sustained throughput.  Classic entries (spec_class None —
        # every entry of a homogeneous plan) pace on the cluster floor exactly
        # as before.
        self._class_pacing = {
            cls.index: cls.achievable_flops
            for cls in plan.cluster.spec_classes()
        }
        # The transmission list is immutable per plan, so the per-boundary
        # grouping and each boundary's critical-path duration are computed
        # once here instead of on every simulated iteration.
        by_boundary: dict[int, list[TransmissionOp]] = {}
        for t in transmissions:
            by_boundary.setdefault(t.boundary_after_wave, []).append(t)
        self._boundary_durations = {
            boundary: self._boundary_duration(grouped)
            for boundary, grouped in by_boundary.items()
        }

    def run_iteration(self) -> IterationResult:
        cluster = self.plan.cluster
        tracer = get_tracer()
        metrics = get_metrics()
        trace = UtilizationTrace(
            num_devices=cluster.num_devices,
            # The fastest device normalises utilization, so heterogeneous
            # traces stay within [0, 1]; uniform clusters are unaffected.
            peak_flops_per_device=cluster.max_peak_flops,
        )

        current_time = 0.0
        compute_total = 0.0
        send_recv_total = 0.0
        wave_timings: list[WaveSimulation] = []

        with tracer.span(
            "simulator.run_iteration",
            category="simulator",
            num_waves=len(self.plan.waves),
            num_devices=cluster.num_devices,
        ):
            for wave in self.plan.waves:
                wave_start = current_time
                compute_duration = 0.0
                label = f"wave{wave.index}"
                with tracer.span(
                    "simulator.wave", category="simulator", wave=wave.index
                ) as wave_span:
                    for entry in wave.entries:
                        metaop = self.plan.metagraph.metaop(entry.metaop_index)
                        devices = self.plan.placement.devices_for(
                            wave.index, entry.metaop_index
                        )
                        pacing = (
                            self._class_pacing[entry.spec_class]
                            if entry.spec_class is not None
                            else None
                        )
                        per_layer = self.timing_model.operator_time(
                            metaop.representative, entry.n_devices, pacing_flops=pacing
                        )
                        entry_time = per_layer * entry.layers
                        compute_duration = max(compute_duration, entry_time)
                        achieved = self.timing_model.achieved_flops_per_second(
                            metaop.representative, entry.n_devices, pacing_flops=pacing
                        )
                        trace.add_block(
                            devices,
                            start=wave_start,
                            duration=entry_time,
                            flops_per_second=achieved / max(1, entry.n_devices),
                            metaop_index=entry.metaop_index,
                            label=label,
                        )
                    boundary_duration = self._boundary_durations.get(wave.index, 0.0)
                    # The simulated wave duration (compute + boundary), not the
                    # wall time of simulating it, is the observed quantity.
                    metrics.observe(
                        "simulator.wave_seconds", compute_duration + boundary_duration
                    )
                    wave_span.set(
                        simulated_compute_seconds=compute_duration,
                        simulated_boundary_seconds=boundary_duration,
                    )
                wave_timings.append(
                    WaveSimulation(
                        wave_index=wave.index,
                        start=wave_start,
                        compute_duration=compute_duration,
                        boundary_duration=boundary_duration,
                    )
                )
                compute_total += compute_duration
                send_recv_total += boundary_duration
                current_time = wave_start + compute_duration + boundary_duration

            sync_time = self.param_pool.sync_time(cluster)
        iteration_time = current_time + sync_time
        trace.end_time = max(trace.end_time, iteration_time)

        breakdown = TimeBreakdown(
            forward_backward=compute_total,
            param_sync=sync_time,
            send_recv=send_recv_total,
        )
        return IterationResult(
            iteration_time=iteration_time,
            breakdown=breakdown,
            trace=trace,
            device_memory_bytes=dict(self.plan.placement.device_memory_bytes),
            num_waves=len(self.plan.waves),
            metadata={
                "wave_timings": wave_timings,
                "num_parameter_groups": self.param_pool.num_groups,
            },
        )

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _boundary_duration(transmissions: list[TransmissionOp]) -> float:
        """Critical-path duration of the transfers at one wave boundary.

        Transfers between disjoint device pairs overlap; transfers sharing a
        device serialise on that device's link, so the boundary lasts as long
        as the busiest device's accumulated transfer time.
        """
        per_device: dict[int, float] = {}
        for t in transmissions:
            for device in t.touched_devices:
                per_device[device] = per_device.get(device, 0.0) + t.time_seconds
        if not per_device:
            return 0.0
        return max(per_device.values())
