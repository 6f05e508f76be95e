"""Utilization traces produced by the simulated runtime engine.

These traces back the case-study figures of the paper: cluster utilization over
the iteration timeline (Fig. 1 lower, Fig. 9a), per-device utilization and
per-MetaOp utilization spider charts (Fig. 9b).  Utilization is measured in
achieved FLOP/s, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Optional, Sequence

from repro.summation import left_sum


@dataclass(frozen=True)
class TraceSegment:
    """A contiguous busy period of one device."""

    device_id: int
    start: float
    end: float
    flops_per_second: float
    metaop_index: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("Trace segment ends before it starts")
        if self.flops_per_second < 0:
            raise ValueError("Trace segment has negative throughput")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def flops(self) -> float:
        return self.flops_per_second * self.duration


@dataclass(frozen=True)
class BusyBlock:
    """One busy period shared by a device group: a wave entry or an operator.

    Stands for one :class:`TraceSegment` per device, in ``devices`` order.
    """

    devices: tuple[int, ...]
    start: float
    end: float
    flops_per_second: float
    metaop_index: Optional[int] = None
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def flops(self) -> float:
        """FLOPs of one of the block's per-device segments."""
        return self.flops_per_second * self.duration


@dataclass
class UtilizationTrace:
    """Busy periods over one (or more) training iterations.

    The trace records one :class:`BusyBlock` per device group and computes
    every aggregate from the blocks, with the same additions in the same
    order as a per-device segment list would, so the results are bit-for-bit
    those of summing :attr:`segments`.  The segment list itself is built only
    when read.
    """

    num_devices: int
    peak_flops_per_device: float
    end_time: float = 0.0
    blocks: list[BusyBlock] = field(default_factory=list)
    _segments: list[TraceSegment] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add_block(
        self,
        devices: Sequence[int],
        start: float,
        duration: float,
        flops_per_second: float,
        metaop_index: Optional[int] = None,
        label: str = "",
    ) -> None:
        """Record ``devices`` busy from ``start`` for ``duration`` seconds."""
        devices = tuple(devices)
        if not devices:
            return
        end = start + duration
        if end < start:
            raise ValueError("Trace segment ends before it starts")
        if flops_per_second < 0:
            raise ValueError("Trace segment has negative throughput")
        if min(devices) < 0 or max(devices) >= self.num_devices:
            bad = next(d for d in devices if not 0 <= d < self.num_devices)
            raise ValueError(f"Device id {bad} outside [0, {self.num_devices})")
        self.blocks.append(
            BusyBlock(devices, start, end, flops_per_second, metaop_index, label)
        )
        self._segments = None
        self.end_time = max(self.end_time, end)

    def add_busy(
        self,
        device_id: int,
        start: float,
        duration: float,
        flops_per_second: float,
        metaop_index: Optional[int] = None,
        label: str = "",
    ) -> None:
        self.add_block(
            (device_id,), start, duration, flops_per_second, metaop_index, label
        )

    @property
    def segments(self) -> list[TraceSegment]:
        """One segment per device of every block, in insertion order."""
        if self._segments is None:
            self._segments = [
                TraceSegment(
                    device_id=device,
                    start=block.start,
                    end=block.end,
                    flops_per_second=block.flops_per_second,
                    metaop_index=block.metaop_index,
                    label=block.label,
                )
                for block in self.blocks
                for device in block.devices
            ]
        return self._segments

    # ------------------------------------------------------------- aggregates
    def _per_device(self, value_of) -> list[float]:
        totals = [0.0] * self.num_devices
        for block in self.blocks:
            value = value_of(block)
            for device in block.devices:
                totals[device] += value
        return totals

    def device_busy_time(self) -> dict[int, float]:
        return dict(enumerate(self._per_device(lambda block: block.duration)))

    def device_average_flops(self) -> dict[int, float]:
        """Average achieved FLOP/s per device over the full timeline."""
        if self.end_time <= 0:
            return {d: 0.0 for d in range(self.num_devices)}
        totals = self._per_device(lambda block: block.flops)
        return {d: total / self.end_time for d, total in enumerate(totals)}

    def device_utilization(self) -> dict[int, float]:
        """Average utilization of each device as a fraction of peak FLOP/s."""
        return {
            d: flops / self.peak_flops_per_device
            for d, flops in self.device_average_flops().items()
        }

    def cluster_average_flops(self) -> float:
        """Cluster-wide average achieved FLOP/s over the timeline."""
        if self.end_time <= 0:
            return 0.0
        per_segment = chain.from_iterable(
            repeat(block.flops, len(block.devices)) for block in self.blocks
        )
        return left_sum(per_segment) / self.end_time

    def cluster_timeline(self, num_points: int = 200) -> list[tuple[float, float]]:
        """Sampled cluster FLOP/s over time (the curve of Fig. 9a)."""
        if num_points <= 0:
            raise ValueError("num_points must be positive")
        if self.end_time <= 0:
            return [(0.0, 0.0)]
        step = self.end_time / num_points
        points = []
        for i in range(num_points):
            t_lo, t_hi = i * step, (i + 1) * step
            total = 0.0
            for block in self.blocks:
                overlap = min(block.end, t_hi) - max(block.start, t_lo)
                if overlap > 0:
                    total = left_sum(
                        repeat(block.flops_per_second * overlap, len(block.devices)), total
                    )
            points.append((t_lo, total / step))
        return points

    def metaop_average_flops(self) -> dict[int, float]:
        """Average achieved FLOP/s of each MetaOp while it executes (Fig. 9b)."""
        time_per_metaop: dict[int, float] = {}
        flops_per_metaop: dict[int, float] = {}
        for block in self.blocks:
            index = block.metaop_index
            if index is None:
                continue
            times = len(block.devices)
            time_per_metaop[index] = left_sum(
                repeat(block.duration, times), time_per_metaop.get(index, 0.0)
            )
            flops_per_metaop[index] = left_sum(
                repeat(block.flops, times), flops_per_metaop.get(index, 0.0)
            )
        return {
            idx: flops_per_metaop[idx] / time_per_metaop[idx]
            for idx in time_per_metaop
            if time_per_metaop[idx] > 0
        }

    def metaop_utilization(self) -> dict[int, float]:
        """Per-MetaOp utilization as a fraction of per-device peak FLOP/s."""
        return {
            idx: flops / self.peak_flops_per_device
            for idx, flops in self.metaop_average_flops().items()
        }
