"""Wavefront scheduler: greedy construction of waves (§3.4, Algorithm 1).

Given the allocation plan of a MetaLevel, the scheduler iteratively crafts
waves.  For each wave it

1. proposes ASL-tuples to occupy as many devices as possible,
2. extends the allocation of the MetaOps with the largest remaining execution
   time when devices would otherwise sit idle,
3. aligns execution time spans by slicing the proposed tuples to the shortest
   one, and
4. fixes the start times and removes the scheduled operators from the
   remaining set.

MetaLevels are scheduled individually and merged back-to-back, which reinstates
the operator dependencies (§3.4, "Merging MetaLevels").
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.allocator import (
    ValidAllocationFn,
    ValidAllocationGrid,
    default_valid_allocations,
)
from repro.core.estimator import ScalingCurve
from repro.core.metagraph import MetaOp
from repro.core.plan import LevelAllocation, Wave, WaveEntry, WavefrontSchedule


class SchedulerError(Exception):
    """Raised when the scheduler cannot make progress."""


@dataclass
class _PendingTuple:
    """Mutable view of an ASL-tuple while it is being consumed by waves."""

    n_devices: int
    layers_remaining: int


@dataclass
class _PendingMetaOp:
    """Remaining work of one MetaOp during wavefront scheduling."""

    metaop: MetaOp
    curve: ScalingCurve
    tuples: list[_PendingTuple]
    operator_cursor: int = 0

    @property
    def exhausted(self) -> bool:
        return all(t.layers_remaining == 0 for t in self.tuples)

    def next_tuple(self) -> _PendingTuple | None:
        for t in self.tuples:
            if t.layers_remaining > 0:
                return t
        return None

    def largest_fitting_tuple(self, device_budget: int) -> _PendingTuple | None:
        best: _PendingTuple | None = None
        for t in self.tuples:
            if t.layers_remaining == 0 or t.n_devices > device_budget:
                continue
            if best is None or t.n_devices > best.n_devices:
                best = t
        return best

    def remaining_time(self) -> float:
        return sum(
            self.curve.time(t.n_devices) * t.layers_remaining
            for t in self.tuples
            if t.layers_remaining > 0
        )


@dataclass
class _Candidate:
    """One MetaOp slice proposed for the wave being crafted.

    ``spec_class`` is the budget pool the candidate draws devices from:
    ``None`` for classic cluster-wide scheduling, a spec-class index on
    heterogeneity-aware levels.
    """

    pending: _PendingMetaOp
    source: _PendingTuple
    n_devices: int
    spec_class: int | None = None

    @property
    def per_layer_time(self) -> float:
        return self.pending.curve.time(self.n_devices)

    @property
    def tuple_time(self) -> float:
        return self.per_layer_time * self.source.layers_remaining


@dataclass
class WavefrontScheduler:
    """Greedy wavefront scheduling of one MetaLevel (Algorithm 1)."""

    num_devices: int
    valid_allocation_fn: ValidAllocationFn = field(default=default_valid_allocations)
    #: Shared memoized valid-allocation grids; created (bound to
    #: ``valid_allocation_fn``) when not supplied by the planner.  The resource
    #: extension step queries valid allocations per candidate per wave, which
    #: without memoization re-enumerates ``range(1, N+1)`` each time.
    allocation_grid: ValidAllocationGrid | None = None

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise SchedulerError("num_devices must be positive")
        if self.allocation_grid is None:
            self.allocation_grid = ValidAllocationGrid(self.valid_allocation_fn)
        elif self.allocation_grid.fn is not self.valid_allocation_fn:
            raise SchedulerError(
                "allocation_grid must be bound to the scheduler's "
                "valid_allocation_fn"
            )

    # ------------------------------------------------------------- public API
    def schedule_level(
        self,
        allocation: LevelAllocation,
        metaops: Sequence[MetaOp],
        curves: dict[int, ScalingCurve],
        start_time: float = 0.0,
        wave_index_offset: int = 0,
    ) -> tuple[list[Wave], float]:
        """Craft the waves of one MetaLevel; returns (waves, end_time).

        On spec-class-partitioned levels (``allocation.spec_classes`` set),
        every wave enforces one device budget per spec class: a MetaOp's
        slices only ever occupy — and extend into — devices of the class it
        was allocated on, so each entry is paced on its own group's sustained
        rate.  Classic levels run with the single cluster-wide budget.
        """
        pending = self._build_pending(allocation, metaops, curves)
        class_of = allocation.spec_classes
        if class_of is None:
            budgets: dict[int | None, int] = {None: self.num_devices}
        else:
            budgets = dict(allocation.class_sizes or {})
            if not budgets:
                raise SchedulerError(
                    "spec-class level allocation is missing its class sizes"
                )
        waves: list[Wave] = []
        current_time = start_time
        wave_index = wave_index_offset
        while any(not p.exhausted for p in pending.values()):
            wave = self._craft_wave(
                pending, wave_index, allocation.level, current_time,
                class_of, budgets,
            )
            waves.append(wave)
            current_time = wave.end
            wave_index += 1
        return waves, current_time

    def schedule(
        self,
        level_allocations: dict[int, LevelAllocation],
        metaops_by_level: dict[int, list[MetaOp]],
        curves: dict[int, ScalingCurve],
        start_time: float = 0.0,
    ) -> WavefrontSchedule:
        """Schedule every MetaLevel and merge the waves (§3.4)."""
        waves: list[Wave] = []
        current = start_time
        for level in sorted(level_allocations):
            level_waves, current = self.schedule_level(
                level_allocations[level],
                metaops_by_level[level],
                curves,
                start_time=current,
                wave_index_offset=len(waves),
            )
            waves.extend(level_waves)
        return WavefrontSchedule(waves=waves, makespan=current)

    # -------------------------------------------------------------- internals
    def _build_pending(
        self,
        allocation: LevelAllocation,
        metaops: Sequence[MetaOp],
        curves: dict[int, ScalingCurve],
    ) -> dict[int, _PendingMetaOp]:
        pending: dict[int, _PendingMetaOp] = {}
        for metaop in metaops:
            tuples = [
                _PendingTuple(
                    n_devices=min(t.n_devices, self.num_devices),
                    layers_remaining=t.layers,
                )
                for t in allocation.tuples_for(metaop.index)
                if not t.is_dummy
            ]
            if not tuples:
                raise SchedulerError(
                    f"MetaOp {metaop.index} has no non-dummy allocation tuples"
                )
            total = sum(t.layers_remaining for t in tuples)
            if total != metaop.num_operators:
                raise SchedulerError(
                    f"Allocation of MetaOp {metaop.index} covers {total} operators, "
                    f"expected {metaop.num_operators}"
                )
            pending[metaop.index] = _PendingMetaOp(
                metaop=metaop, curve=curves[metaop.index], tuples=tuples
            )
        return pending

    def _craft_wave(
        self,
        pending: dict[int, _PendingMetaOp],
        wave_index: int,
        level: int,
        start_time: float,
        class_of: dict[int, int] | None = None,
        budgets: dict[int | None, int] | None = None,
    ) -> Wave:
        if budgets is None:
            budgets = {None: self.num_devices}
        candidates = self._propose_candidates(pending, class_of, budgets)
        if not candidates:
            raise SchedulerError("No candidate ASL-tuples fit into the wave")
        self._extend_resources(candidates, budgets)
        entries, duration = self._align_time_span(candidates)
        wave = Wave(
            index=wave_index,
            level=level,
            start=start_time,
            duration=duration,
            entries=entries,
        )
        self._commit(wave, pending)
        return wave

    def _propose_candidates(
        self,
        pending: dict[int, _PendingMetaOp],
        class_of: dict[int, int] | None,
        budgets: dict[int | None, int],
    ) -> list[_Candidate]:
        """Step 1: greedily occupy as many devices as possible.

        Each candidate draws devices from its MetaOp's budget pool — the
        whole cluster on classic levels, its assigned spec class on
        partitioned ones — so a heavy MetaOp can never crowd a light one off
        the light one's own islands.
        """
        active = [p for p in pending.values() if not p.exhausted]
        # Prefer MetaOps whose next tuple uses many devices, breaking ties by
        # the amount of remaining work (balances workloads over waves).
        active.sort(
            key=lambda p: (
                -(p.next_tuple().n_devices if p.next_tuple() else 0),
                -p.remaining_time(),
            )
        )
        remaining = dict(budgets)
        candidates: list[_Candidate] = []
        for p in active:
            cls = class_of.get(p.metaop.index) if class_of is not None else None
            source = p.largest_fitting_tuple(remaining.get(cls, 0))
            if source is None:
                continue
            candidates.append(
                _Candidate(
                    pending=p,
                    source=source,
                    n_devices=source.n_devices,
                    spec_class=cls,
                )
            )
            remaining[cls] -= source.n_devices
            if sum(remaining.values()) == 0:
                break
        if not candidates and active:
            # Nothing fits (a single tuple larger than the cluster should have
            # been clamped already); force the smallest pending tuple in.
            p = min(active, key=lambda p: p.next_tuple().n_devices)
            source = p.next_tuple()
            assert source is not None
            cls = class_of.get(p.metaop.index) if class_of is not None else None
            cap = budgets.get(cls, self.num_devices)
            candidates.append(
                _Candidate(
                    pending=p,
                    source=source,
                    n_devices=min(source.n_devices, cap),
                    spec_class=cls,
                )
            )
        return candidates

    def _extend_resources(
        self,
        candidates: list[_Candidate],
        budgets: dict[int | None, int],
    ) -> None:
        """Step 2: extend allocations so no device sits idle.

        Extension is prioritised for the MetaOps with the largest remaining
        execution time, balancing the residual workload across MetaOps.  Each
        candidate only grows within its own budget pool: devices of a spec
        class that scheduled no work this wave stay idle rather than hosting
        a slice paced for a different class.
        """
        idle = dict(budgets)
        for c in candidates:
            idle[c.spec_class] -= c.n_devices
        if all(value <= 0 for value in idle.values()):
            return
        by_remaining = sorted(
            candidates, key=lambda c: c.pending.remaining_time(), reverse=True
        )
        progress = True
        while any(value > 0 for value in idle.values()) and progress:
            progress = False
            for candidate in by_remaining:
                pool = candidate.spec_class
                if idle[pool] <= 0:
                    continue
                valid = self.allocation_grid.grid(
                    candidate.pending.metaop, budgets[pool]
                )
                new_n = self._extension_step(valid, candidate.n_devices, idle[pool])
                if new_n is None:
                    continue
                idle[pool] -= new_n - candidate.n_devices
                candidate.n_devices = new_n
                progress = True
                if all(value <= 0 for value in idle.values()):
                    break

    @staticmethod
    def _extension_step(valid: Sequence[int], n: int, idle: int) -> int | None:
        """The smallest valid allocation above ``n`` using at most ``idle``
        more devices, or ``None``.

        Grids are sorted and duplicate-free, so that allocation is the first
        one past ``n`` or there is none.
        """
        index = bisect_right(valid, n)
        if index < len(valid) and valid[index] <= n + idle:
            return valid[index]
        return None

    def _align_time_span(
        self, candidates: list[_Candidate]
    ) -> tuple[list[WaveEntry], float]:
        """Step 3: slice the proposed tuples to align their time spans."""
        wave_span = min(c.tuple_time for c in candidates)
        entries: list[WaveEntry] = []
        duration = 0.0
        for candidate in candidates:
            per_layer = candidate.per_layer_time
            if per_layer <= 0:
                layers = candidate.source.layers_remaining
            else:
                layers = min(
                    candidate.source.layers_remaining,
                    max(1, math.floor(wave_span / per_layer + 1e-9)),
                )
            entry_duration = layers * per_layer
            entries.append(
                WaveEntry(
                    metaop_index=candidate.pending.metaop.index,
                    n_devices=candidate.n_devices,
                    layers=layers,
                    duration=entry_duration,
                    operator_offset=candidate.pending.operator_cursor,
                    spec_class=candidate.spec_class,
                )
            )
            duration = max(duration, entry_duration)
        return entries, duration

    def _commit(self, wave: Wave, pending: dict[int, _PendingMetaOp]) -> None:
        """Step 4: fix start times and remove scheduled work."""
        for entry in wave.entries:
            p = pending[entry.metaop_index]
            remaining = entry.layers
            p.operator_cursor += entry.layers
            for t in p.tuples:
                if remaining == 0:
                    break
                if t.layers_remaining == 0:
                    continue
                consumed = min(t.layers_remaining, remaining)
                t.layers_remaining -= consumed
                remaining -= consumed
            if remaining:
                raise SchedulerError(
                    f"Wave {wave.index} over-schedules MetaOp {entry.metaop_index}"
                )
