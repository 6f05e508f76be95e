"""Byte-identity of large-cluster plans and simulations against a capture.

``tests/data/fig8_plan_identity.json`` stops at 64 GPUs (8 islands), where
placement sees few islands and the simulator few devices.  This capture pins
what the placer and the simulated runtime engine produce at 256-4096 GPUs, on
an irregular (``island_sizes``) and a mixed-spec (``node_specs``) topology,
for one seeded 256-GPU unified scenario with a node join, and for six
fixed-task-set elastic scenarios (cluster events only):

* the SHA-256 of the canonical plan document (``planning_report`` dropped),
* ``repr`` of the simulated iteration time, the cluster-average FLOP/s and
  the summed per-device busy time of one simulated iteration,
* the SHA-256 of the unified run's ``to_document()``,
* the SHA-256 of each elastic run's :func:`elastic_projection`: its totals,
  segments, initial-plan record and per-event replan decisions, replan and
  migration documents.

The elastic entries were first captured with the former dedicated elastic
runner, before its loop was folded into
:class:`~repro.unified.runtime.UnifiedRunner`; they pin that the fold changed
no figure, with incremental replanning on and off.  When the projection lost
its curve-reuse-rate key (a figure that read 0 on every elastic run), the
six elastic SHAs were regenerated with ``--write`` at the commit before that
removal, with only the projection edited, so every other figure they cover is
still the fold-time one; the regenerated file differed from the old one in
exactly those six values.

The capture was generated on Python 3.11.  Like ``fig8_plan_identity.json``
it also holds under Python 3.12's compensated ``sum()``: the planner, the run
totals and this file's busy-time total add floats with
:func:`repro.summation.left_sum`, one at a time as 3.10 and 3.11's ``sum()``
does, and ``tests/test_summation.py`` replays both captures with a
transcription of 3.12's ``sum()`` in place of the builtin.

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
from repro.elastic import (
    DebouncedReplanPolicy,
    ImmediateReplanPolicy,
    MigrationCostModel,
    SlowdownThresholdPolicy,
    flash_crowd_timeline,
    gpu_straggler_timeline,
    island_outage_timeline,
    rolling_straggler_timeline,
)
from repro.elastic.events import NODE_JOIN, ClusterEvent, random_failure_timeline
from repro.models import multitask_clip_tasks, ofasys_tasks
from repro.runtime.engine import RuntimeEngine
from repro.summation import left_sum
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
        "device_busy_seconds": repr(left_sum(result.trace.device_busy_time().values())),
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


#: Fixed-task-set elastic scenarios: (tasks, nodes of 8 GPUs, iterations,
#: cluster timeline, policy, checkpoint interval).
ELASTIC_CASES = {
    # The ``elastic_recovery`` smoke benchmark's scenario.
    "random-failures-seed0": (
        lambda: multitask_clip_tasks(4), 2, 200,
        lambda: random_failure_timeline(2, 8, 200, 3, seed=0),
        lambda: SlowdownThresholdPolicy(threshold=0.1), None,
    ),
    "island-outage-16gpus": (
        lambda: multitask_clip_tasks(4), 2, 60,
        lambda: island_outage_timeline(1, 8, at_iteration=20, recovery_at=40),
        ImmediateReplanPolicy, None,
    ),
    "testgpu-flash-crowd-16gpus": (
        lambda: multitask_clip_tasks(4), 2, 60,
        lambda: flash_crowd_timeline(20, 1, 8, TEST_GPU_SPEC),
        ImmediateReplanPolicy, None,
    ),
    "ofasys5-gpu-stragglers-32gpus": (
        lambda: ofasys_tasks(5), 4, 120,
        lambda: gpu_straggler_timeline(4, 8, 120, 5, seed=2, severity=0.4),
        lambda: DebouncedReplanPolicy(min_groups=2), None,
    ),
    "clip10-rolling-stragglers-64gpus": (
        lambda: multitask_clip_tasks(10), 8, 120,
        lambda: rolling_straggler_timeline(8, 120, 3, seed=1),
        lambda: SlowdownThresholdPolicy(threshold=0.1), 7,
    ),
    "clip10-random-failures-64gpus": (
        lambda: multitask_clip_tasks(10), 8, 120,
        lambda: random_failure_timeline(8, 8, 120, 4, seed=3),
        ImmediateReplanPolicy, None,
    ),
}


def elastic_runner(name: str, incremental: bool = True) -> UnifiedRunner:
    tasks, nodes, iterations, timeline, policy, interval = ELASTIC_CASES[name]
    tasks = tasks()
    names = tuple(task.name for task in tasks)
    scenario = UnifiedScenario(
        num_nodes=nodes,
        devices_per_node=8,
        device_spec=A800_SPEC,
        timeline=UnifiedTimeline(cluster_events=timeline()),
        total_iterations=iterations,
        task_pool=dict(zip(names, tasks)),
        initial_tasks=names,
        name=name,
    )
    return UnifiedRunner(
        scenario,
        policy=policy(),
        migration_model=MigrationCostModel(checkpoint_interval=interval),
        incremental=incremental,
    )


def elastic_projection(result) -> dict:
    """An elastic run's totals, segments, initial plan and per-event
    decisions with their replan and migration documents."""
    return {
        "scenario": result.scenario_name,
        "policy": result.policy,
        "total_iterations": result.total_iterations,
        "baseline_seconds": result.baseline_seconds,
        "training_seconds": result.training_seconds,
        "overhead_seconds": result.overhead_seconds,
        "total_seconds": result.total_seconds,
        "cumulative_slowdown": result.cumulative_slowdown,
        "replan_count": result.replan_count,
        "cache_hits": result.cache_hits,
        "migration_bytes": result.migration_bytes,
        "migration_seconds": result.migration_seconds,
        "replan_charged_seconds": result.replan_charged_seconds,
        "initial_plan": result.initial_plan.to_document(),
        "segments": [segment.to_document() for segment in result.segments],
        "events": [
            {
                "iteration": outcome.iteration,
                "forced": outcome.forced,
                "replanned": outcome.replanned,
                "estimated_slowdown": outcome.estimated_slowdown,
                "stay_slowdown": outcome.stay_slowdown,
                "num_devices": outcome.num_devices,
                "topology_signature": outcome.topology_signature[:12],
                "cluster_events": [e.to_document() for e in outcome.cluster_events],
                "replan": outcome.replan.to_document() if outcome.replan else None,
                "migration": (
                    outcome.migration.to_document() if outcome.migration else None
                ),
            }
            for outcome in result.outcomes
        ],
    }


def elastic_record(name: str, incremental: bool = True) -> dict[str, str]:
    result = elastic_runner(name, incremental).run()
    return {"projection_sha256": _sha256(elastic_projection(result))}


def capture() -> dict:
    records = {name: plan_record(name) for name in CASES}
    records["unified-256gpus-node-join"] = unified_record()
    records.update({name: elastic_record(name) for name in ELASTIC_CASES})
    return records


@pytest.fixture(scope="module")
def pinned():
    return json.loads(CAPTURE_FILE.read_text())


def test_capture_covers_every_case(pinned):
    assert set(pinned) == (
        set(CASES) | {"unified-256gpus-node-join"} | set(ELASTIC_CASES)
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_and_simulation_match_capture(pinned, name):
    assert plan_record(name) == pinned[name], name


def test_unified_run_matches_capture(pinned):
    assert unified_record() == pinned["unified-256gpus-node-join"]


@pytest.mark.parametrize("mode", ["incremental", "full"])
@pytest.mark.parametrize("name", sorted(ELASTIC_CASES))
def test_elastic_run_matches_capture(pinned, name, mode):
    assert elastic_record(name, incremental=mode == "incremental") == pinned[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_plan_identity_large --write")
    CAPTURE_FILE.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CAPTURE_FILE}")
