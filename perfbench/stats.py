"""Percentile arithmetic for op latencies.

Percentiles are nearest-rank: the ``q``-th percentile of ``n`` sorted values
is the value at rank ``ceil(q * n / 100)``, so it is always one of the
measured latencies and the number of ops beyond it is exact.
"""

from __future__ import annotations

from typing import Sequence

#: A tail percentile must leave at least this many ops beyond it.
MIN_OPS_BEYOND_TAIL = 10


def nearest_rank(sorted_values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (``0 < q <= 100``) of ascending ``sorted_values``."""
    if not sorted_values:
        raise ValueError("no values")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    rank = -(-q * len(sorted_values) // 100)  # ceil without float rounding
    return sorted_values[max(rank, 1) - 1]


def ops_beyond(n: int, q: int) -> int:
    """How many of ``n`` ops lie strictly beyond the ``q``-th percentile's rank."""
    return n - max(-(-q * n // 100), 1)


def tail_percentile(n: int, beyond: int = MIN_OPS_BEYOND_TAIL) -> int:
    """The highest whole percentile with at least ``beyond`` of ``n`` ops past it."""
    if n <= beyond:
        raise ValueError(f"{n} ops leave no percentile with {beyond} ops beyond it")
    return 100 * (n - beyond) // n
