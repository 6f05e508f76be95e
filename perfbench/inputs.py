"""Seeded inputs of the three workloads.

Every generator draws from a private ``random.Random`` seeded with a string
that names the workload and the seed, so the same seed gives the same
inputs byte for byte and the workloads' streams never share draws.  The
program under test receives only what these functions build: task objects,
clusters and scenarios.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass

from repro.cluster.device import A800_SPEC, TEST_GPU_SPEC
from repro.elastic.events import NODE_JOIN, ClusterEvent, random_failure_timeline
from repro.experiments.load_replay import fleet_request_stream
from repro.graph.task import SpindleTask
from repro.models.multitask_clip import CLIP_TASKS, build_clip_task
from repro.models.ofasys import OFASYS_TASKS, build_ofasys_task
from repro.service.fingerprint import canonical_task
from repro.unified import (
    PHASE_CHANGE,
    TASK_ARRIVAL,
    TASK_DEPARTURE,
    UnifiedScenario,
    UnifiedTimeline,
    WorkloadEvent,
)

CLIP = "multitask-clip"
OFASYS = "ofasys"
_SPECS = {CLIP: CLIP_TASKS, OFASYS: OFASYS_TASKS}
_BUILDERS = {CLIP: build_clip_task, OFASYS: build_ofasys_task}

# ------------------------------------------------------------------ serve-hot
SERVE_HOT_GPUS = 64
SERVE_HOT_WINDOWS = 48
#: Share of requests that arrive as freshly built task objects.  No traffic
#: trace exists to take it from: it is a design point, chosen so that p50
#: falls in the interned mode and the tail in the fresh one.
SERVE_HOT_FRESH_SHARE = 0.10


@dataclass(frozen=True)
class ServeHotInputs:
    """The distinct task windows, in first-request order, and the ops over them.

    ``ops[i]`` is ``(window, fresh)``: the index of op ``i``'s window and
    whether the op submits freshly built task objects instead of the
    interned tuple.
    """

    windows: tuple[tuple[str, ...], ...]
    ops: tuple[tuple[int, bool], ...]

    def describe(self) -> bytes:
        return json.dumps(
            {"windows": self.windows, "ops": self.ops}, separators=(",", ":")
        ).encode()


def serve_hot_inputs(seed: int, num_ops: int) -> ServeHotInputs:
    """The seeded ``fleet_request_stream`` over the 48 widest CLIP windows.

    The stream's own draw sets popularity; the seed also picks which ops
    arrive fresh.
    """
    names = [spec.name for spec in CLIP_TASKS]
    stream, _ = fleet_request_stream(names, num_ops, SERVE_HOT_WINDOWS, seed)
    windows = list(dict.fromkeys(stream))
    index = {window: i for i, window in enumerate(windows)}
    rng = random.Random(f"serve-hot/{seed}")
    fresh = set(rng.sample(range(num_ops), round(num_ops * SERVE_HOT_FRESH_SHARE)))
    return ServeHotInputs(
        windows=tuple(windows),
        ops=tuple((index[window], i in fresh) for i, window in enumerate(stream)),
    )


def build_tasks(model: str, names, weights=None) -> tuple[SpindleTask, ...]:
    """Fresh task objects for ``names`` of ``model``'s task specs."""
    specs = {spec.name: spec for spec in _SPECS[model]}
    tasks = tuple(_BUILDERS[model](specs[name]) for name in names)
    for task, weight in zip(tasks, weights or ()):
        task.weight = weight
    return tasks


# ------------------------------------------------------------------ plan-cold
PLAN_COLD_GPUS = (1024, 4096)
#: One block of requests: 3 of every 4 go to 1024 GPUs, and each cluster gets
#: as many CLIP as OFASys requests.  Blocks are shuffled, so the cluster and
#: model mix of any run is exact and only the order and subsets vary by seed.
#: The splits, like the U(0.5, 2) task weights, are design points, not
#: measured traffic: they put p50 in the 1024-GPU mode and the tail in the
#: 4096-GPU one, and the weights make every fingerprint distinct.
_PLAN_COLD_BLOCK = (
    (1024, CLIP),
    (1024, CLIP),
    (1024, CLIP),
    (1024, OFASYS),
    (1024, OFASYS),
    (1024, OFASYS),
    (4096, CLIP),
    (4096, OFASYS),
)
PLAN_COLD_BLOCK_SIZE = len(_PLAN_COLD_BLOCK)
PLAN_COLD_MIN_TASKS = 3


@dataclass(frozen=True)
class ColdRequest:
    """One plan-cold request: a weighted task subset on one cluster size."""

    gpus: int
    model: str
    tasks: tuple[str, ...]
    weights: tuple[float, ...]

    def build(self) -> tuple[SpindleTask, ...]:
        return build_tasks(self.model, self.tasks, self.weights)


def plan_cold_requests(seed: int, num_ops: int) -> list[ColdRequest]:
    """``num_ops`` requests with pairwise distinct fingerprints.

    Subsets hold 3-10 CLIP or 3-7 OFASys tasks in spec order; every task
    gets a seeded weight, which the fingerprint covers.
    """
    if num_ops % PLAN_COLD_BLOCK_SIZE:
        raise ValueError(f"num_ops must be a multiple of {PLAN_COLD_BLOCK_SIZE}")
    rng = random.Random(f"plan-cold/{seed}")
    requests: list[ColdRequest] = []
    seen: set[ColdRequest] = set()
    # Subset sizes are dealt from a shuffled deck per (cluster, model), so
    # every size recurs evenly and the work per run varies little by seed.
    decks: dict[tuple[int, str], list[int]] = {}
    while len(requests) < num_ops:
        block = list(_PLAN_COLD_BLOCK)
        rng.shuffle(block)
        for gpus, model in block:
            specs = _SPECS[model]
            deck = decks.setdefault((gpus, model), [])
            if not deck:
                deck.extend(range(PLAN_COLD_MIN_TASKS, len(specs) + 1))
                rng.shuffle(deck)
            size = deck.pop()
            while True:
                chosen = sorted(rng.sample(range(len(specs)), size))
                request = ColdRequest(
                    gpus=gpus,
                    model=model,
                    tasks=tuple(specs[i].name for i in chosen),
                    weights=tuple(round(rng.uniform(0.5, 2.0), 4) for _ in chosen),
                )
                if request not in seen:
                    break
            seen.add(request)
            requests.append(request)
    return requests


def describe_requests(requests: list[ColdRequest]) -> bytes:
    return json.dumps(
        [dataclasses.asdict(request) for request in requests], separators=(",", ":")
    ).encode()


# ------------------------------------------------------------- elastic-replay
ELASTIC_NODES = 32
ELASTIC_DEVICES_PER_NODE = 8
ELASTIC_ITERATIONS = 400
#: A design point, like the single node join, not a measured failure rate.
ELASTIC_FAILURES = 3
ELASTIC_SLOWDOWN_THRESHOLD = 0.1


def elastic_scenario(seed: int, index: int) -> UnifiedScenario:
    """One seeded scenario on a 256-GPU A800 cluster training CLIP-10.

    Events: random device failures with recoveries, an in-place resubmission
    of one job (same architecture, new name and weight: full-structure
    reuse), the departure and later re-arrival of another, and one node of
    the second device spec joining (heterogeneous planning from then on).
    """
    rng = random.Random(f"elastic-replay/{seed}/{index}")
    initial = tuple(spec.name for spec in CLIP_TASKS)
    pool = dict(zip(initial, build_tasks(CLIP, initial)))
    churned, leaving = rng.sample(range(len(initial)), 2)
    resubmitted = build_clip_task(
        dataclasses.replace(CLIP_TASKS[churned], name=f"{initial[churned]}_resubmit")
    )
    resubmitted.weight = 2.0
    pool[resubmitted.name] = resubmitted

    timeline = UnifiedTimeline(
        cluster_events=random_failure_timeline(
            ELASTIC_NODES,
            ELASTIC_DEVICES_PER_NODE,
            ELASTIC_ITERATIONS,
            ELASTIC_FAILURES,
            seed=rng.randrange(2**32),
        )
    )
    timeline.add_cluster(
        ClusterEvent(
            NODE_JOIN,
            at_iteration=rng.randrange(1, ELASTIC_ITERATIONS),
            spec=TEST_GPU_SPEC,
            num_devices=ELASTIC_DEVICES_PER_NODE,
        )
    )
    churn_at, leave_at, return_at = sorted(
        rng.sample(range(1, ELASTIC_ITERATIONS), 3)
    )
    active = list(initial)
    active[churned] = resubmitted.name
    timeline.add_workload(WorkloadEvent(PHASE_CHANGE, churn_at, tuple(active)))
    timeline.add_workload(WorkloadEvent(TASK_DEPARTURE, leave_at, (initial[leaving],)))
    timeline.add_workload(WorkloadEvent(TASK_ARRIVAL, return_at, (initial[leaving],)))
    return UnifiedScenario(
        num_nodes=ELASTIC_NODES,
        devices_per_node=ELASTIC_DEVICES_PER_NODE,
        device_spec=A800_SPEC,
        timeline=timeline,
        total_iterations=ELASTIC_ITERATIONS,
        task_pool=pool,
        initial_tasks=initial,
        name=f"elastic-replay-{seed}-{index}",
    )


def describe_scenario(scenario: UnifiedScenario) -> bytes:
    return json.dumps(
        {
            "name": scenario.name,
            "cluster": [
                scenario.num_nodes,
                scenario.devices_per_node,
                scenario.device_spec.name,
            ],
            "iterations": scenario.total_iterations,
            "initial": scenario.initial_tasks,
            "pool": {
                name: canonical_task(task) for name, task in scenario.task_pool.items()
            },
            "timeline": scenario.timeline.to_document(),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
