"""Resource allocator: MPSP relaxation + bi-point discretization (§3.3, App. B).

For each MetaLevel the allocator

1. relaxes the problem to the malleable project scheduling problem (MPSP) with
   continuously divisible devices and operators, and finds the optimum
   completion time ``C*`` and allocations ``n*_m`` by bisection search over
   ``sum_m T_m^{-1}(C*/L_m) = N`` (Theorem 1, Algorithm 2);
2. discretizes each continuous allocation ``n*_m`` into at most two *valid*
   integer allocations ⟨n̄, l̄⟩, ⟨n̲, l̲⟩ whose combined execution time equals
   ``C*`` (conditions 10a/10b), rounding layer counts to integers at the end.

Valid allocations respect practical parallelism constraints: a MetaOp's device
count must divide its global batch size (pure data parallelism) or be a
multiple of it (hybrid data/tensor parallelism), mirroring §3.3.

Hot-path layout
---------------
The bisection loop evaluates ``Find_Inverse_Value`` for every MetaOp at every
iteration, which is the planner's dominant cost at scale (Fig. 12).  Three
quantities are loop-invariant and are therefore computed exactly once per
solve:

* the *valid-allocation grid* of each MetaOp (memoized across solves, waves
  and discretization in :class:`ValidAllocationGrid` — ``default_valid_allocations``
  enumerates ``range(1, N+1)``, which must not happen per call on a
  4096-device cluster),
* the curve evaluations over that grid (one vectorized
  :meth:`~repro.core.estimator.ScalingCurve.time_many` call), and
* the resulting :class:`InverseTable`, whose per-iteration lookup is a single
  O(log G) bisect instead of an O(G) scan preceded by an O(G log G) sort.

Each bisection step additionally exploits that every MetaOp's allocation —
and hence the total — is monotonically non-increasing in the completion time
``C``: the per-iteration summation stops as soon as the running total settles
the comparison against the device count, without evaluating the remaining
MetaOps.  All of this is value-preserving: the optimized solver walks the
exact same bisection iterates and produces bit-identical allocations to the
reference implementation (kept as ``optimized=False`` for equivalence tests).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.estimator import ScalingCurve
from repro.core.metagraph import MetaGraph, MetaOp
from repro.core.plan import ASLTuple, LevelAllocation
from repro.summation import left_sum


class AllocationError(Exception):
    """Raised when no feasible allocation exists."""


ValidAllocationFn = Callable[[MetaOp, int], list[int]]


def default_valid_allocations(metaop: MetaOp, max_devices: int) -> list[int]:
    """Valid device counts for a MetaOp on a cluster of ``max_devices`` GPUs.

    ``n`` is valid when it divides the MetaOp's global batch size (so data
    parallelism partitions samples evenly) or is a multiple of the batch size
    (each sample group adds tensor-parallel ranks).
    """
    if max_devices <= 0:
        raise AllocationError("max_devices must be positive")
    batch = metaop.batch_size
    valid = [
        n
        for n in range(1, max_devices + 1)
        if batch % n == 0 or n % batch == 0
    ]
    if not valid:
        valid = [1]
    return valid


class ValidAllocationGrid:
    """Memoized, normalized valid-allocation grids.

    The default rule depends only on the MetaOp's global batch size, so grids
    are cached under ``(batch_size, max_devices)`` — one enumeration per
    distinct batch size instead of one per ``solve_continuous`` /
    ``discretize`` / wave-extension call.  (The bound callable is the third
    key component: each instance caches for exactly one function.)  Custom
    allocation rules may inspect arbitrary MetaOp state, so they are called
    through uncached.

    Grids are normalized exactly as ``Find_Inverse_Value`` requires: sorted,
    duplicate-free integer device counts, returned as an immutable tuple.
    """

    def __init__(self, fn: ValidAllocationFn | None = None) -> None:
        self.fn = fn or default_valid_allocations
        self._cacheable = self.fn is default_valid_allocations
        self._cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def grid(self, metaop: MetaOp, max_devices: int) -> tuple[int, ...]:
        """The normalized valid-allocation grid of ``metaop``."""
        if not self._cacheable:
            return self._normalize(self.fn(metaop, max_devices))
        key = (metaop.batch_size, max_devices)
        grid = self._cache.get(key)
        if grid is None:
            grid = self._normalize(self.fn(metaop, max_devices))
            self._cache[key] = grid
        return grid

    @staticmethod
    def _normalize(valid: Sequence[int]) -> tuple[int, ...]:
        grid = tuple(sorted(set(int(n) for n in valid)))
        if not grid:
            raise AllocationError("Valid allocation grid is empty")
        return grid

    def __len__(self) -> int:
        return len(self._cache)


class InverseTable:
    """Precomputed ``Find_Inverse_Value`` lookup for one (curve, grid) pair.

    Holds the valid grid and the curve's execution times over it (computed
    once, vectorized); :meth:`inverse` then answers each bisection iteration
    with a single bisect over the (monotonically non-increasing) time column.
    Results are bit-identical to the reference scan in
    :func:`_find_inverse_value_scan`.
    """

    __slots__ = ("grid", "times", "_neg_times", "_max_float", "_monotone")

    def __init__(self, curve: ScalingCurve, grid: Sequence[int]) -> None:
        self.grid = tuple(grid)
        if not self.grid:
            raise AllocationError("Valid allocation grid is empty")
        self.times: list[float] = curve.time_many(self.grid).tolist()
        self._neg_times = [-t for t in self.times]
        self._max_float = float(self.grid[-1])
        # Bisect is exact only over a sorted column.  Curve evaluations at
        # grid points straddling a piece breakpoint can break monotonicity by
        # rounding ulps — checked once here; such tables use the reference
        # pair scan, which does not assume monotone times.
        self._monotone = all(
            self.times[i] >= self.times[i + 1] for i in range(len(self.times) - 1)
        )

    @property
    def max_valid(self) -> int:
        return self.grid[-1]

    def inverse(self, target_time: float) -> float:
        """The (fractional) allocation meeting ``target_time`` (Eq. 11)."""
        if target_time <= 0:
            raise AllocationError("Target time must be positive")
        grid, times = self.grid, self.times
        if target_time >= times[0]:
            # Fewer devices than the smallest valid allocation would suffice.
            return grid[0] * times[0] / target_time
        if target_time <= times[-1]:
            return self._max_float
        if self._monotone:
            # First index whose time is <= target; times are non-increasing,
            # so (j-1, j) is exactly the first bracketing pair the reference
            # scan finds.
            j = bisect_left(self._neg_times, -target_time)
        else:
            for j in range(1, len(times)):
                if times[j] <= target_time <= times[j - 1]:
                    break
            else:
                return self._max_float
        n_lo, n_hi = grid[j - 1], grid[j]
        t_lo, t_hi = times[j - 1], times[j]
        if abs(t_lo - t_hi) < 1e-15:
            return float(n_hi)
        return ((target_time - t_hi) * n_lo + (t_lo - target_time) * n_hi) / (
            t_lo - t_hi
        )

    def capped_inverse(self, target_time: float) -> float:
        """:meth:`inverse`, saturated at the largest valid allocation."""
        value = self.inverse(target_time)
        return self._max_float if value > self._max_float else value


def _find_inverse_value_scan(
    curve: ScalingCurve,
    target_time: float,
    valid: Sequence[int],
) -> float:
    """Reference linear-scan ``Find_Inverse_Value`` (kept for equivalence tests)."""
    if target_time <= 0:
        raise AllocationError("Target time must be positive")
    grid = sorted(set(int(n) for n in valid))
    if not grid:
        raise AllocationError("Valid allocation grid is empty")
    times = [curve.time(n) for n in grid]

    if target_time >= times[0]:
        return grid[0] * times[0] / target_time
    if target_time <= times[-1]:
        return float(grid[-1])
    for (n_lo, t_lo), (n_hi, t_hi) in zip(zip(grid, times), zip(grid[1:], times[1:])):
        if t_hi <= target_time <= t_lo:
            if abs(t_lo - t_hi) < 1e-15:
                return float(n_hi)
            return ((target_time - t_hi) * n_lo + (t_lo - target_time) * n_hi) / (
                t_lo - t_hi
            )
    return float(grid[-1])


def find_inverse_value(
    curve: ScalingCurve,
    target_time: float,
    valid: Sequence[int],
) -> float:
    """``Find_Inverse_Value`` of Appendix B over the valid allocation grid.

    Finds the closest valid allocations ``n̲, n̄`` such that
    ``target_time ∈ [T(n̄), T(n̲)]`` and returns the linear combination of
    Eq. (11).  Targets slower than ``T(n_min)`` extrapolate below one device
    (fractional allocations signal the dummy-allocation case); targets faster
    than ``T(n_max)`` saturate at the largest valid allocation.

    One-shot convenience entry point: normalizes the grid and evaluates the
    curve per call.  The allocator's bisection loop instead builds one
    :class:`InverseTable` per (MetaOp, solve) and reuses it across iterations.
    """
    if target_time <= 0:
        raise AllocationError("Target time must be positive")
    return InverseTable(curve, sorted(set(int(n) for n in valid))).inverse(
        target_time
    )


@dataclass(frozen=True)
class ContinuousAllocation:
    """Optimum of the continuous (MPSP) relaxation for one MetaLevel."""

    c_star: float
    allocations: dict[int, float]

    def total_devices(self) -> float:
        return left_sum(self.allocations.values())


class ResourceAllocator:
    """Derives the allocation plan of each MetaLevel."""

    def __init__(
        self,
        num_devices: int,
        valid_allocation_fn: ValidAllocationFn | None = None,
        bisection_tolerance: float = 1e-4,
        max_bisection_iters: int = 200,
        allocation_grid: ValidAllocationGrid | None = None,
        optimized: bool = True,
    ) -> None:
        if num_devices <= 0:
            raise AllocationError("num_devices must be positive")
        self.num_devices = num_devices
        self.valid_allocation_fn = valid_allocation_fn or default_valid_allocations
        self.bisection_tolerance = bisection_tolerance
        self.max_bisection_iters = max_bisection_iters
        if allocation_grid is not None and allocation_grid.fn is not self.valid_allocation_fn:
            raise AllocationError(
                "allocation_grid must be bound to the allocator's "
                "valid_allocation_fn"
            )
        # `is None`, not truthiness: a freshly created shared grid is empty
        # and ValidAllocationGrid.__len__ would make it falsy.
        self.allocation_grid = (
            allocation_grid
            if allocation_grid is not None
            else ValidAllocationGrid(self.valid_allocation_fn)
        )
        self.optimized = optimized

    # ---------------------------------------------------------- continuous
    def solve_continuous(
        self,
        metaops: Sequence[MetaOp],
        curves: dict[int, ScalingCurve],
    ) -> ContinuousAllocation:
        """Bisection search for the MPSP optimum ``C*`` (Algorithm 2)."""
        if not metaops:
            raise AllocationError("Cannot allocate an empty MetaLevel")
        if not self.optimized:
            return self._solve_continuous_reference(metaops, curves)

        # Loop-invariant hoisting: one normalized grid, one vectorized curve
        # evaluation and one inverse table per MetaOp for the whole search.
        tables = {
            m.index: InverseTable(
                curves[m.index], self.allocation_grid.grid(m, self.num_devices)
            )
            for m in metaops
        }

        c_low = max(
            tables[m.index].times[-1] * m.num_operators for m in metaops
        )
        c_high = left_sum(curves[m.index].time(1) * m.num_operators for m in metaops)
        c_high = max(c_high, c_low * (1 + self.bisection_tolerance))

        # If even the fastest completion (every MetaOp at its largest valid
        # allocation) fits in the cluster, the lower bound is already optimal.
        allocations = self._allocations_at(c_low, metaops, tables)
        if left_sum(allocations.values()) <= self.num_devices:
            return ContinuousAllocation(c_star=c_low, allocations=allocations)

        for _ in range(self.max_bisection_iters):
            if c_high - c_low <= self.bisection_tolerance * c_high:
                break
            c_mid = 0.5 * (c_low + c_high)
            if self._fits(c_mid, metaops, tables):
                c_high = c_mid
            else:
                c_low = c_mid
        c_star = c_high
        return ContinuousAllocation(
            c_star=c_star,
            allocations=self._allocations_at(c_star, metaops, tables),
        )

    def _allocations_at(
        self,
        c: float,
        metaops: Sequence[MetaOp],
        tables: dict[int, InverseTable],
    ) -> dict[int, float]:
        return {
            m.index: tables[m.index].capped_inverse(c / m.num_operators)
            for m in metaops
        }

    def _fits(
        self,
        c: float,
        metaops: Sequence[MetaOp],
        tables: dict[int, InverseTable],
    ) -> bool:
        """Whether the total allocation at ``C`` is below the device count.

        Allocations are positive, so the running total is monotone: once it
        reaches ``num_devices`` the comparison is settled and the remaining
        MetaOps need not be evaluated.
        """
        total = 0.0
        for m in metaops:
            total += tables[m.index].capped_inverse(c / m.num_operators)
            if total >= self.num_devices:
                return False
        return True

    def _solve_continuous_reference(
        self,
        metaops: Sequence[MetaOp],
        curves: dict[int, ScalingCurve],
    ) -> ContinuousAllocation:
        """Unoptimized Algorithm 2 (per-iteration grid enumeration and scans).

        Retained verbatim from the pre-vectorization implementation as the
        ground truth the plan-equivalence tests compare against.
        """
        valid = {
            m.index: self.valid_allocation_fn(m, self.num_devices) for m in metaops
        }
        max_valid = {idx: max(v) for idx, v in valid.items()}

        def level_allocations(c: float) -> dict[int, float]:
            return {
                m.index: min(
                    float(max_valid[m.index]),
                    _find_inverse_value_scan(
                        curves[m.index], c / m.num_operators, valid[m.index]
                    ),
                )
                for m in metaops
            }

        c_low = max(
            curves[m.index].time(max_valid[m.index]) * m.num_operators for m in metaops
        )
        c_high = left_sum(curves[m.index].time(1) * m.num_operators for m in metaops)
        c_high = max(c_high, c_low * (1 + self.bisection_tolerance))

        if left_sum(level_allocations(c_low).values()) <= self.num_devices:
            allocations = level_allocations(c_low)
            return ContinuousAllocation(c_star=c_low, allocations=allocations)

        for _ in range(self.max_bisection_iters):
            if c_high - c_low <= self.bisection_tolerance * c_high:
                break
            c_mid = 0.5 * (c_low + c_high)
            total = left_sum(level_allocations(c_mid).values())
            if total < self.num_devices:
                c_high = c_mid
            else:
                c_low = c_mid
        c_star = c_high
        return ContinuousAllocation(c_star=c_star, allocations=level_allocations(c_star))

    # --------------------------------------------------------- discretization
    def discretize(
        self,
        metaop: MetaOp,
        n_star: float,
        c_star: float,
        curve: ScalingCurve,
    ) -> list[ASLTuple]:
        """Bi-point discretized allocation of one MetaOp (conditions 10a/10b)."""
        if self.optimized:
            valid: Sequence[int] = self.allocation_grid.grid(metaop, self.num_devices)
        else:
            valid = self.valid_allocation_fn(metaop, self.num_devices)
        total_layers = metaop.num_operators
        lower = [n for n in valid if n <= n_star]
        upper = [n for n in valid if n >= n_star]

        if not lower:
            # The continuous optimum needs less than the smallest valid
            # allocation: the lower point is a dummy allocation (n = 0) that
            # preserves condition (10b) as idle time and is then ignored.  All
            # operators run on the smallest valid allocation.
            return [ASLTuple(n_devices=min(valid), layers=total_layers)]
        if not upper:
            return [ASLTuple(n_devices=max(valid), layers=total_layers)]

        n_lo, n_hi = max(lower), min(upper)
        if n_lo == n_hi:
            return [ASLTuple(n_devices=n_lo, layers=total_layers)]

        t_lo, t_hi = curve.time(n_lo), curve.time(n_hi)
        if abs(t_lo - t_hi) < 1e-15:
            return [ASLTuple(n_devices=n_lo, layers=total_layers)]
        # Solve l_hi * t_hi + l_lo * t_lo = c_star with l_hi + l_lo = L.
        layers_hi = (c_star - total_layers * t_lo) / (t_hi - t_lo)
        layers_hi = min(float(total_layers), max(0.0, layers_hi))
        layers_hi_int = int(round(layers_hi))
        layers_lo_int = total_layers - layers_hi_int

        tuples: list[ASLTuple] = []
        if layers_hi_int > 0:
            tuples.append(ASLTuple(n_devices=n_hi, layers=layers_hi_int))
        if layers_lo_int > 0:
            tuples.append(ASLTuple(n_devices=n_lo, layers=layers_lo_int))
        if not tuples:
            tuples.append(ASLTuple(n_devices=n_hi, layers=total_layers))
        return tuples

    # ----------------------------------------------------------------- levels
    def allocate_level(
        self,
        level: int,
        metaops: Sequence[MetaOp],
        curves: dict[int, ScalingCurve],
    ) -> LevelAllocation:
        """Full allocation pipeline (continuous optimum + discretization)."""
        continuous = self.solve_continuous(metaops, curves)
        plan = {
            m.index: self.discretize(
                m,
                continuous.allocations[m.index],
                continuous.c_star,
                curves[m.index],
            )
            for m in metaops
        }
        return LevelAllocation(
            level=level,
            c_star=continuous.c_star,
            continuous=dict(continuous.allocations),
            plan=plan,
        )

    def allocate(
        self, metagraph: MetaGraph, curves: dict[int, ScalingCurve]
    ) -> dict[int, LevelAllocation]:
        """Allocate every MetaLevel of the MetaGraph individually."""
        allocations: dict[int, LevelAllocation] = {}
        for level, indices in enumerate(metagraph.levels()):
            metaops = [metagraph.metaop(i) for i in indices]
            allocations[level] = self.allocate_level(level, metaops, curves)
        return allocations
