"""The fingerprint memo serves live task objects and holds none of them alive.

A fleet fingerprints each request once, in its one service's memo.  An entry
keeps weak references to its workload's objects, so a workload its client
dropped is collected, and an id CPython hands to a new object can never
return the dead workload's fingerprint.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.service.server as server
from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.service import FingerprintMemo, PlanService, PlanServiceFleet
from repro.service.fingerprint import fingerprint_workload
from tests.conftest import make_chain_task


@pytest.fixture
def cluster():
    return make_cluster(4, devices_per_node=4)


def _tasks(batch: int = 8) -> tuple:
    """Two fresh task objects; ``batch`` changes the fingerprint."""
    return (
        make_chain_task("audio", {"audio": 2, "lm": 2}, batch=batch, shared_prefix="shared"),
        make_chain_task("vision", {"vision": 2, "lm": 2}, batch=4, shared_prefix="shared"),
    )


def _request_and_drop(front_end) -> weakref.ref:
    tasks = _tasks()
    assert front_end.request(tasks, timeout=30.0).plan is not None
    probe = weakref.ref(tasks[0])
    del tasks
    gc.collect()
    return probe


def test_a_dropped_workload_is_collected_behind_a_service(cluster):
    with PlanService(ExecutionPlanner(cluster), num_workers=1) as service:
        assert _request_and_drop(service)() is None


def test_a_dropped_workload_is_collected_behind_a_fleet(cluster):
    with PlanServiceFleet(lambda: ExecutionPlanner(cluster)) as fleet:
        assert _request_and_drop(fleet)() is None


def test_a_recycled_key_never_returns_the_dead_workloads_digest(cluster, monkeypatch):
    # Every workload shares one key, as two workloads do when CPython gives
    # a dead workload's ids to new objects.
    monkeypatch.setattr(FingerprintMemo, "key_of", staticmethod(lambda workload: (0,)))
    config = ExecutionPlanner(cluster).config_signature()
    memo = FingerprintMemo(cluster, config)
    first = _tasks()
    dead = memo.fingerprint(first)
    del first
    gc.collect()
    second = _tasks(batch=16)
    expected = fingerprint_workload(second, cluster, config)
    assert expected != dead
    assert memo.fingerprint(second) == expected
    # While both live, the one key still serves each workload its own digest.
    third = _tasks(batch=32)
    assert memo.fingerprint(third) == fingerprint_workload(third, cluster, config)
    assert memo.fingerprint(second) == expected


def test_a_fleet_keeps_one_memo_entry_per_workload(cluster):
    tasks = _tasks()
    with PlanServiceFleet(lambda: ExecutionPlanner(cluster)) as fleet:
        windows = [tasks, tasks[:1], tasks[1:], _tasks(batch=16), _tasks(batch=32)]
        for window in windows:
            fleet.plan(window, timeout=30.0)
            fleet.request(window, timeout=30.0)
            fleet.submit(window).result(timeout=30.0)
        (service,) = fleet.shards
        assert len(service._fingerprints._memo) == len(windows)


@pytest.mark.parametrize("front", ["service", "fleet"])
def test_resubmitting_live_tasks_fingerprints_once(cluster, monkeypatch, front):
    calls = []

    def counting(workload, *args):
        calls.append(workload)
        return fingerprint_workload(workload, *args)

    monkeypatch.setattr(server, "fingerprint_workload", counting)
    tasks = _tasks()
    if front == "service":
        front_end = PlanService(ExecutionPlanner(cluster), num_workers=1)
    else:
        front_end = PlanServiceFleet(lambda: ExecutionPlanner(cluster))
    with front_end:
        for _ in range(3):
            front_end.plan(tasks, timeout=30.0)
            front_end.request(list(tasks), timeout=30.0)
    assert len(calls) == 1
