"""Data structures describing allocation plans, waves and execution plans.

These types are shared by the resource allocator (§3.3), the wavefront
scheduler (§3.4), the device placement pass (§3.5) and the runtime engine
(§3.6):

* :class:`ASLTuple` — the paper's ⟨n, s, l⟩ tuple: ``l`` consecutive operators
  of a MetaOp allocated ``n`` devices starting at time ``s``.
* :class:`WaveEntry` / :class:`Wave` — one concurrent execution of sliced
  MetaOps on disjoint device groups; the smallest scheduling unit of Spindle.
* :class:`WavefrontSchedule` — the waves of all MetaLevels merged in order.
* :class:`ExecutionPlan` — the final product of the execution planner,
  consumed by the runtime engine.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.summation import left_sum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.cluster.topology import ClusterTopology
    from repro.core.estimator import ScalingCurve
    from repro.core.metagraph import MetaGraph


class PlanError(Exception):
    """Raised when a plan component is internally inconsistent."""


@dataclass
class ASLTuple:
    """Allocation-Schedule-Length tuple ⟨n, s, l⟩ of §3.3.

    ``layers`` consecutive operators of the owning MetaOp are allocated
    ``n_devices`` devices and scheduled to start at ``start`` (``None`` until
    the wavefront scheduler assigns start times).
    """

    n_devices: int
    layers: int
    start: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_devices < 0:
            raise PlanError("ASL-tuple device count must be non-negative")
        if self.layers < 0:
            raise PlanError("ASL-tuple layer count must be non-negative")

    @property
    def is_dummy(self) -> bool:
        """Dummy allocations (n = 0) preserve the optimum but are ignored."""
        return self.n_devices == 0 or self.layers == 0


@dataclass
class WaveEntry:
    """One sliced MetaOp scheduled inside a wave.

    ``spec_class`` is the index of the cluster spec class this entry is
    allocated from and paced on (heterogeneity-aware plans only).  ``None``
    means the entry may span the whole cluster and paces on the cluster-wide
    sustained-throughput floor — the only mode on homogeneous clusters, and
    the conservative fallback on heterogeneous ones.
    """

    metaop_index: int
    n_devices: int
    layers: int
    duration: float
    operator_offset: int = 0
    devices: tuple[int, ...] = ()
    spec_class: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise PlanError("Wave entries must use at least one device")
        if self.layers <= 0:
            raise PlanError("Wave entries must execute at least one operator")
        if self.duration < 0:
            raise PlanError("Wave entry duration must be non-negative")


@dataclass
class Wave:
    """The smallest scheduling unit: one concurrent execution of sliced MetaOps.

    Within a wave the device allocation is fixed; data flows are transmitted
    only at wave boundaries (§3.4).
    """

    index: int
    level: int
    start: float
    duration: float
    entries: list[WaveEntry] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def devices_used(self) -> int:
        return sum(entry.n_devices for entry in self.entries)

    def entry_for(self, metaop_index: int) -> Optional[WaveEntry]:
        for entry in self.entries:
            if entry.metaop_index == metaop_index:
                return entry
        return None

    def validate(self, num_devices: int) -> None:
        if self.devices_used > num_devices:
            raise PlanError(
                f"Wave {self.index} uses {self.devices_used} devices, cluster has "
                f"{num_devices}"
            )
        seen = set()
        for entry in self.entries:
            if entry.metaop_index in seen:
                raise PlanError(
                    f"Wave {self.index} schedules MetaOp {entry.metaop_index} twice"
                )
            seen.add(entry.metaop_index)


@dataclass
class WavefrontSchedule:
    """All waves of the execution plan, ordered by start time."""

    waves: list[Wave] = field(default_factory=list)
    makespan: float = 0.0

    @property
    def num_waves(self) -> int:
        return len(self.waves)

    def waves_at_level(self, level: int) -> list[Wave]:
        return [wave for wave in self.waves if wave.level == level]

    def levels(self) -> list[int]:
        seen: dict[int, None] = {}
        for wave in self.waves:
            seen.setdefault(wave.level, None)
        return list(seen)

    def scheduled_layers(self, metaop_index: int) -> int:
        """Total operators of ``metaop_index`` scheduled across all waves."""
        return sum(
            entry.layers
            for wave in self.waves
            for entry in wave.entries
            if entry.metaop_index == metaop_index
        )

    def validate(self, num_devices: int) -> None:
        previous_end = 0.0
        for wave in self.waves:
            wave.validate(num_devices)
            if wave.start + 1e-9 < previous_end:
                raise PlanError(
                    f"Wave {wave.index} starts at {wave.start} before the previous "
                    f"wave ends at {previous_end}"
                )
            previous_end = wave.end


class BlockMemoryMap(Mapping[int, float]):
    """Read-only per-device memory stored once per block of device ids.

    Block ``i`` covers the ids from ``starts[i]`` up to the next start (the
    last block up to ``num_devices``), and each of its devices holds
    ``values[i]`` bytes.  Iteration visits device ids in ascending order, so
    ``items()`` and ``values()`` equal the per-device dict's, value for
    value, while the map keeps one start and one value per block.
    """

    __slots__ = ("_starts", "_values", "_num_devices")

    def __init__(
        self, starts: Sequence[int], values: Sequence[float], num_devices: int
    ) -> None:
        self._starts = tuple(starts)
        self._values = tuple(values)
        self._num_devices = num_devices

    def __getitem__(self, device: int) -> float:
        if not 0 <= device < self._num_devices:
            raise KeyError(device)
        return self._values[bisect_right(self._starts, device) - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._num_devices))

    def __len__(self) -> int:
        return self._num_devices


@dataclass
class PlacementResult:
    """Device assignment for every (wave, MetaOp) pair plus memory accounting.

    The optimized placer reports ``device_memory_bytes`` as a
    :class:`BlockMemoryMap`; the reference and sequential placers as a dict.
    """

    assignments: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    device_memory_bytes: Mapping[int, float] = field(default_factory=dict)
    oom_events: list[tuple[int, int]] = field(default_factory=list)
    backtracks: int = 0

    def devices_for(self, wave_index: int, metaop_index: int) -> tuple[int, ...]:
        try:
            return self.assignments[(wave_index, metaop_index)]
        except KeyError as exc:
            raise PlanError(
                f"No placement for MetaOp {metaop_index} in wave {wave_index}"
            ) from exc

    def memory_imbalance(self) -> float:
        """Ratio of max to mean per-device memory (1.0 = perfectly balanced)."""
        if not self.device_memory_bytes:
            return 1.0
        values = list(self.device_memory_bytes.values())
        mean = sum(values) / len(values)
        if mean == 0:
            return 1.0
        return max(values) / mean


@dataclass
class LevelAllocation:
    """Allocation plan of one MetaLevel produced by the resource allocator.

    On heterogeneity-aware levels, ``spec_classes`` maps each MetaOp index to
    the spec class it was assigned to (allocated from and paced on) and
    ``class_sizes`` gives each assigned class's device count — the per-class
    budgets the wavefront scheduler enforces.  Both are ``None`` on levels
    allocated the classic way (homogeneous clusters, or heterogeneous levels
    where cluster-spanning floor pacing won the comparison).
    """

    level: int
    c_star: float
    continuous: dict[int, float]
    plan: dict[int, list[ASLTuple]]
    spec_classes: Optional[dict[int, int]] = None
    class_sizes: Optional[dict[int, int]] = None

    def tuples_for(self, metaop_index: int) -> list[ASLTuple]:
        return list(self.plan.get(metaop_index, []))

    def total_layers(self, metaop_index: int) -> int:
        return sum(t.layers for t in self.plan.get(metaop_index, []))

    def spec_class_of(self, metaop_index: int) -> Optional[int]:
        if self.spec_classes is None:
            return None
        return self.spec_classes.get(metaop_index)


@dataclass
class PlanningReport:
    """Timings and intermediate results of the planning pipeline (Fig. 12)."""

    stage_seconds: dict[str, float] = field(default_factory=dict)
    level_c_star: dict[int, float] = field(default_factory=dict)
    num_metaops: int = 0
    num_levels: int = 0
    num_waves: int = 0
    #: MetaOps whose scaling curve was supplied precomputed (incremental
    #: re-planning) instead of being profiled and fitted in this run.
    reused_curves: int = 0
    #: MetaLevels that adopted a spec-class partition (heterogeneous clusters
    #: only; zero on homogeneous clusters and classic plans).
    partitioned_levels: int = 0
    #: MetaLevels whose allocation was adopted from a structurally matching
    #: previous plan (:meth:`ExecutionPlanner.plan_incremental`) instead of
    #: being re-solved.  Equals ``num_levels`` on a full-structure reuse.
    reused_levels: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())


@dataclass
class ExecutionPlan:
    """The final Spindle execution plan consumed by the runtime engine."""

    metagraph: "MetaGraph"
    cluster: "ClusterTopology"
    schedule: WavefrontSchedule
    placement: PlacementResult
    curves: dict[int, "ScalingCurve"]
    level_allocations: dict[int, LevelAllocation]
    report: PlanningReport = field(default_factory=PlanningReport)
    #: Canonical content hash of (workload, cluster, planner configuration);
    #: the cache key of the planning service (``None`` for hand-built plans).
    fingerprint: Optional[str] = None

    @property
    def waves(self) -> list[Wave]:
        return self.schedule.waves

    @property
    def estimated_compute_makespan(self) -> float:
        """Planner's estimate of the compute completion time C (eq. 1)."""
        return self.schedule.makespan

    @property
    def theoretical_optimum(self) -> float:
        """Sum of per-level continuous optima (Theorem 1 lower bound)."""
        return left_sum(alloc.c_star for alloc in self.level_allocations.values())

    def validate(self) -> None:
        self.schedule.validate(self.cluster.num_devices)
        for wave in self.schedule.waves:
            for entry in wave.entries:
                devices = self.placement.devices_for(wave.index, entry.metaop_index)
                if len(devices) != entry.n_devices:
                    raise PlanError(
                        f"Wave {wave.index} MetaOp {entry.metaop_index}: "
                        f"{len(devices)} devices placed, {entry.n_devices} allocated"
                    )
        for metaop in self.metagraph.metaops.values():
            scheduled = self.schedule.scheduled_layers(metaop.index)
            if scheduled != metaop.num_operators:
                raise PlanError(
                    f"MetaOp {metaop.index} schedules {scheduled} operators, "
                    f"expected {metaop.num_operators}"
                )
