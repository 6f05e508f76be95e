"""Left-to-right sums whose floats do not depend on the interpreter.

CPython 3.12 switched the builtin ``sum()`` of floats to compensated
(Neumaier) summation, so one list of floats can sum to different values on
3.11 and on 3.12.  Plans, simulated times and reports must be the same bytes
on every supported interpreter, so the float accumulations on those paths
go through :func:`left_sum`, which adds one value at a time from the left:
the value CPython 3.10 and 3.11's ``sum()`` return.  ``math.fsum`` would be
interpreter-independent too, but it rounds once at the end and so changes
every plan that ``sum()`` produced until now.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def left_sum(values: Iterable[float], start: float = 0) -> float:
    """``start`` plus each of ``values`` in order, one addition at a time."""
    return reduce(add, values, start)
