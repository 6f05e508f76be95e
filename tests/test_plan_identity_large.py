"""Byte-identity of large-cluster plans and simulations against a capture.

``tests/data/fig8_plan_identity.json`` stops at 64 GPUs (8 islands), where
placement sees few islands and the simulator few devices.  This capture pins
what the placer and the simulated runtime engine produce at 256-4096 GPUs, on
an irregular (``island_sizes``) and a mixed-spec (``node_specs``) topology,
and for one seeded 256-GPU unified scenario with a node join:

* the SHA-256 of the canonical plan document (``planning_report`` dropped),
* ``repr`` of the simulated iteration time, the cluster-average FLOP/s and
  the summed per-device busy time of one simulated iteration,
* the SHA-256 of the unified run's ``to_document()``.

The capture was generated on Python 3.11.  Like ``fig8_plan_identity.json``
it holds where ``sum()`` adds floats one at a time (3.10, 3.11): the planner
sums floats with the builtin, and Python 3.12's compensated ``sum()`` moves
the last bits of some plan values.

Regenerate (only after an intentional plan change) with::

    PYTHONPATH=src python -m tests.test_plan_identity_large --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.cluster.device import A800_SPEC, TEST_GPU_SPEC, DeviceSpec
from repro.cluster.topology import make_cluster, make_heterogeneous_cluster
from repro.core.planner import ExecutionPlanner
from repro.core.serialization import plan_to_dict
from repro.elastic.events import NODE_JOIN, ClusterEvent, random_failure_timeline
from repro.models import multitask_clip_tasks, ofasys_tasks
from repro.runtime.engine import RuntimeEngine
from repro.unified import (
    TASK_ARRIVAL,
    TASK_DEPARTURE,
    UnifiedRunner,
    UnifiedScenario,
    UnifiedTimeline,
    WorkloadEvent,
)

CAPTURE_FILE = Path(__file__).parent / "data" / "plan_identity_large.json"

MID_SPEC = DeviceSpec(
    name="MidGPU-80GB",
    peak_flops=170e12,
    memory_bytes=A800_SPEC.memory_bytes,
    achievable_fraction=0.55,
)

#: 40 islands of 4-8 GPUs (270 devices).
IRREGULAR_ISLANDS = (8, 6, 8, 4, 8, 7, 5, 8) * 5
#: 64 nodes of 8 GPUs cycling three specs, one of them with 16 GB of HBM.
MIXED_SPECS = (A800_SPEC, MID_SPEC, A800_SPEC, TEST_GPU_SPEC) * 16

_MODELS = {"clip10": lambda: multitask_clip_tasks(10), "ofasys7": lambda: ofasys_tasks(7)}


def _cases():
    cases = {}
    for model in ("clip10", "ofasys7"):
        for gpus in (256, 1024, 4096):
            cases[f"{model}-{gpus}gpus"] = (model, lambda g=gpus: make_cluster(g))
    cases["clip10-irregular270"] = (
        "clip10",
        lambda: make_heterogeneous_cluster(
            [A800_SPEC] * len(IRREGULAR_ISLANDS), island_sizes=IRREGULAR_ISLANDS
        ),
    )
    cases["ofasys7-mixed512"] = ("ofasys7", lambda: make_heterogeneous_cluster(MIXED_SPECS))
    return cases


CASES = _cases()


def _sha256(document) -> str:
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def plan_record(name: str) -> dict[str, str]:
    model, make = CASES[name]
    plan = ExecutionPlanner(make()).plan(_MODELS[model]())
    document = plan_to_dict(plan)
    document.pop("planning_report")
    result = RuntimeEngine(plan).run_iteration()
    return {
        "plan_doc_sha256": _sha256(document),
        "iteration_time": repr(result.iteration_time),
        "cluster_average_flops": repr(result.trace.cluster_average_flops()),
        "device_busy_seconds": repr(sum(result.trace.device_busy_time().values())),
    }


def unified_scenario() -> UnifiedScenario:
    """256 A800 GPUs training CLIP-10: 3 failures, a departure, a node join."""
    rng = random.Random("plan-identity-large")
    tasks = multitask_clip_tasks(10)
    names = tuple(task.name for task in tasks)
    timeline = UnifiedTimeline(
        cluster_events=random_failure_timeline(32, 8, 200, 3, seed=rng.randrange(2**32))
    )
    timeline.add_cluster(
        ClusterEvent(NODE_JOIN, at_iteration=90, spec=TEST_GPU_SPEC, num_devices=8)
    )
    timeline.add_workload(WorkloadEvent(TASK_DEPARTURE, 40, (names[3],)))
    timeline.add_workload(WorkloadEvent(TASK_ARRIVAL, 150, (names[3],)))
    return UnifiedScenario(
        num_nodes=32,
        devices_per_node=8,
        device_spec=A800_SPEC,
        timeline=timeline,
        total_iterations=200,
        task_pool=dict(zip(names, tasks)),
        initial_tasks=names,
        name="plan-identity-large",
    )


def unified_record() -> dict[str, str]:
    result = UnifiedRunner(unified_scenario()).run()
    return {"document_sha256": _sha256(result.to_document())}


def capture() -> dict:
    records = {name: plan_record(name) for name in CASES}
    records["unified-256gpus-node-join"] = unified_record()
    return records


@pytest.fixture(scope="module")
def pinned():
    return json.loads(CAPTURE_FILE.read_text())


def test_capture_covers_every_case(pinned):
    assert set(pinned) == set(CASES) | {"unified-256gpus-node-join"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_and_simulation_match_capture(pinned, name):
    assert plan_record(name) == pinned[name], name


def test_unified_run_matches_capture(pinned):
    assert unified_record() == pinned["unified-256gpus-node-join"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_plan_identity_large --write")
    CAPTURE_FILE.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CAPTURE_FILE}")
