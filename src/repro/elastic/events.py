"""Cluster events and timelines: the substrate changes elastic runs react to.

A :class:`ClusterEvent` describes one change to the physical cluster at a
given training iteration — a device failing or coming back, a whole node
joining or leaving (possibly with a *different* device spec: heterogeneous
capacity expansion), or a straggler onset/clear that degrades a node's
sustained throughput.  A :class:`EventTimeline` is an iteration-ordered
sequence of such events, and the seeded generators at the bottom of the module
produce the scenario families the benchmarks and the ``repro elastic`` CLI
replay: random failures with repair, an island outage, a flash-crowd
expansion, and rolling stragglers.

Events reference *stable* node ids and per-node device slots — the identifiers
:class:`~repro.elastic.view.ElasticClusterView` assigns — never the contiguous
device ids of a derived :class:`~repro.cluster.topology.ClusterTopology`,
which are remapped after every membership change.

All generators draw from a private ``random.Random(seed)``: identical seeds
produce identical timelines, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.cluster.device import DeviceSpec


class ElasticEventError(Exception):
    """Raised for malformed events or timelines."""


#: Event kinds understood by :class:`~repro.elastic.view.ElasticClusterView`.
DEVICE_FAILURE = "device_failure"
DEVICE_RECOVERY = "device_recovery"
NODE_JOIN = "node_join"
NODE_LEAVE = "node_leave"
STRAGGLER_ONSET = "straggler_onset"
STRAGGLER_CLEAR = "straggler_clear"

EVENT_KINDS = (
    DEVICE_FAILURE,
    DEVICE_RECOVERY,
    NODE_JOIN,
    NODE_LEAVE,
    STRAGGLER_ONSET,
    STRAGGLER_CLEAR,
)

#: Kinds that remove capacity the current plan may be running on; the elastic
#: runner replans these unconditionally (the old plan is no longer runnable).
CAPACITY_LOSS_KINDS = frozenset({DEVICE_FAILURE, NODE_LEAVE})


@dataclass(frozen=True)
class ClusterEvent:
    """One change to the cluster substrate at a training-iteration boundary.

    Fields are kind-dependent:

    * ``device_failure`` / ``device_recovery`` — ``node`` + ``device`` (the
      stable per-node slot).
    * ``node_join`` — ``spec`` and ``num_devices`` of the joining node
      (``node`` must be omitted; the view assigns the next stable node id).
    * ``node_leave`` — ``node``.
    * ``straggler_onset`` — ``node`` + ``severity`` (the remaining fraction of
      healthy throughput, in ``(0, 1)``), plus an optional ``device``: with a
      device slot the episode throttles that one GPU (demoting only its
      island's spec class — lockstep groups pace on their slowest member);
      without, the whole node degrades.
    * ``straggler_clear`` — ``node``, plus an optional ``device`` mirroring
      the onset granularity.
    """

    kind: str
    at_iteration: int
    node: int | None = None
    device: int | None = None
    spec: DeviceSpec | None = None
    num_devices: int | None = None
    severity: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ElasticEventError(
                f"Unknown event kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        if self.at_iteration < 0:
            raise ElasticEventError("at_iteration must be non-negative")
        if self.kind in (DEVICE_FAILURE, DEVICE_RECOVERY):
            if self.node is None or self.device is None:
                raise ElasticEventError(f"{self.kind} needs node and device")
        elif self.kind == NODE_JOIN:
            if self.node is not None:
                raise ElasticEventError(
                    "node_join must not name a node; the view assigns the id"
                )
            if self.spec is None:
                raise ElasticEventError("node_join needs the joining node's spec")
            if self.num_devices is None or self.num_devices <= 0:
                raise ElasticEventError("node_join needs a positive num_devices")
        elif self.kind in (NODE_LEAVE, STRAGGLER_CLEAR):
            if self.node is None:
                raise ElasticEventError(f"{self.kind} needs a node")
        elif self.kind == STRAGGLER_ONSET:
            if self.node is None:
                raise ElasticEventError("straggler_onset needs a node")
            if self.severity is None or not (0.0 < self.severity < 1.0):
                raise ElasticEventError(
                    "straggler_onset needs a severity in (0, 1): the remaining "
                    "fraction of healthy throughput"
                )

    def describe(self) -> str:
        """Compact human-readable label, e.g. ``device_failure(n0:d3)``."""
        if self.kind in (DEVICE_FAILURE, DEVICE_RECOVERY):
            target = f"n{self.node}:d{self.device}"
        elif self.kind == NODE_JOIN:
            target = f"+{self.num_devices}x{self.spec.name}"
        elif self.kind == STRAGGLER_ONSET:
            slot = f":d{self.device}" if self.device is not None else ""
            target = f"n{self.node}{slot}@{self.severity:g}"
        elif self.kind == STRAGGLER_CLEAR and self.device is not None:
            target = f"n{self.node}:d{self.device}"
        else:
            target = f"n{self.node}"
        return f"{self.kind}({target})"

    def to_document(self) -> dict[str, Any]:
        """Deterministic JSON document (for byte-identical reports)."""
        document: dict[str, Any] = {
            "kind": self.kind,
            "at_iteration": self.at_iteration,
        }
        if self.node is not None:
            document["node"] = self.node
        if self.device is not None:
            document["device"] = self.device
        if self.spec is not None:
            document["spec"] = self.spec.name
        if self.num_devices is not None:
            document["num_devices"] = self.num_devices
        if self.severity is not None:
            document["severity"] = self.severity
        return document


@dataclass
class EventTimeline:
    """Iteration-ordered sequence of cluster events.

    Events are kept sorted by ``at_iteration`` (stable for equal iterations:
    insertion order is preserved, so e.g. a whole-island outage emitted as
    eight same-iteration failures applies in slot order).
    """

    events: list[ClusterEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at_iteration)

    def add(self, event: ClusterEvent) -> "EventTimeline":
        self.events.append(event)
        self.events.sort(key=lambda e: e.at_iteration)
        return self

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ClusterEvent]:
        return iter(self.events)

    @property
    def last_iteration(self) -> int:
        return self.events[-1].at_iteration if self.events else 0

    def to_document(self) -> list[dict[str, Any]]:
        return [event.to_document() for event in self.events]


# --------------------------------------------------------------- generators
def random_failure_timeline(
    num_nodes: int,
    devices_per_node: int,
    total_iterations: int,
    num_failures: int,
    seed: int = 0,
    repair_iterations: int | None = None,
) -> EventTimeline:
    """Seeded random device failures, each followed by a recovery.

    ``num_failures`` devices (without replacement, so no device fails while
    already down) fail at uniformly drawn iterations; each failed device
    recovers ``repair_iterations`` later (default: ``total_iterations // 4``)
    when that lands inside the run.
    """
    if num_nodes <= 0 or devices_per_node <= 0:
        raise ElasticEventError("cluster dimensions must be positive")
    if total_iterations <= 1:
        raise ElasticEventError("total_iterations must exceed 1")
    slots = [(n, d) for n in range(num_nodes) for d in range(devices_per_node)]
    if num_failures > len(slots):
        raise ElasticEventError(
            f"cannot fail {num_failures} of {len(slots)} devices"
        )
    repair = (
        repair_iterations if repair_iterations is not None else total_iterations // 4
    )
    rng = random.Random(seed)
    timeline = EventTimeline()
    for node, device in rng.sample(slots, num_failures):
        at = rng.randrange(1, total_iterations)
        timeline.add(
            ClusterEvent(DEVICE_FAILURE, at_iteration=at, node=node, device=device)
        )
        recovery_at = at + repair
        if 0 < recovery_at < total_iterations:
            timeline.add(
                ClusterEvent(
                    DEVICE_RECOVERY,
                    at_iteration=recovery_at,
                    node=node,
                    device=device,
                )
            )
    return timeline


def island_outage_timeline(
    node: int,
    devices_per_node: int,
    at_iteration: int,
    recovery_at: int | None = None,
) -> EventTimeline:
    """Every device of one island fails at once; optionally all recover later."""
    timeline = EventTimeline()
    for device in range(devices_per_node):
        timeline.add(
            ClusterEvent(
                DEVICE_FAILURE, at_iteration=at_iteration, node=node, device=device
            )
        )
        if recovery_at is not None:
            timeline.add(
                ClusterEvent(
                    DEVICE_RECOVERY,
                    at_iteration=recovery_at,
                    node=node,
                    device=device,
                )
            )
    return timeline


def flash_crowd_timeline(
    at_iteration: int,
    num_new_nodes: int,
    devices_per_node: int,
    spec: DeviceSpec,
) -> EventTimeline:
    """A capacity burst: ``num_new_nodes`` nodes of ``spec`` join at once.

    Passing a spec different from the incumbent nodes' models heterogeneous
    expansion (e.g. a pod of newer accelerators joining an A800 cluster).
    """
    if num_new_nodes <= 0:
        raise ElasticEventError("num_new_nodes must be positive")
    timeline = EventTimeline()
    for _ in range(num_new_nodes):
        timeline.add(
            ClusterEvent(
                NODE_JOIN,
                at_iteration=at_iteration,
                spec=spec,
                num_devices=devices_per_node,
            )
        )
    return timeline


def rolling_straggler_timeline(
    num_nodes: int,
    total_iterations: int,
    num_episodes: int,
    seed: int = 0,
    severity: float = 0.5,
    episode_iterations: int | None = None,
) -> EventTimeline:
    """Straggler episodes rolling across random nodes.

    Each episode throttles one node to ``severity`` of its healthy throughput
    for ``episode_iterations`` iterations (default: ``total_iterations // 5``),
    then clears.  Episodes on one node never overlap in time — an overlapping
    pair would let the earlier episode's clear prematurely heal the later one
    — so draws that collide with an existing episode on the drawn node are
    rejected and redrawn; an episode whose start cannot be placed after a
    bounded number of attempts (a saturated timeline) is skipped.  Zero-gap
    adjacency is rejected too: one episode's clear landing on the same
    iteration as another's onset would apply in *insertion* order (same-
    iteration events sort stably), letting the clear silently wipe the onset.
    """
    if num_nodes <= 0:
        raise ElasticEventError("num_nodes must be positive")
    if total_iterations <= 1:
        raise ElasticEventError("total_iterations must exceed 1")
    length = (
        episode_iterations if episode_iterations is not None else total_iterations // 5
    )
    length = max(1, length)
    rng = random.Random(seed)
    timeline = EventTimeline()
    busy: dict[int, list[tuple[int, int]]] = {}
    order: list[int] = []
    for _ in range(num_episodes):
        if not order:
            order = list(range(num_nodes))
            rng.shuffle(order)
        node = order.pop()
        for _attempt in range(64):
            at = rng.randrange(1, total_iterations)
            end = min(at + length, total_iterations)
            if all(at > b_end or end < b_at for b_at, b_end in busy.get(node, [])):
                break
        else:
            continue  # node saturated with episodes; skip this one
        busy.setdefault(node, []).append((at, end))
        timeline.add(
            ClusterEvent(
                STRAGGLER_ONSET, at_iteration=at, node=node, severity=severity
            )
        )
        clear_at = at + length
        if clear_at < total_iterations:
            timeline.add(
                ClusterEvent(STRAGGLER_CLEAR, at_iteration=clear_at, node=node)
            )
    return timeline


def gpu_straggler_timeline(
    num_nodes: int,
    devices_per_node: int,
    total_iterations: int,
    num_episodes: int,
    seed: int = 0,
    severity: float = 0.5,
    episode_iterations: int | None = None,
) -> EventTimeline:
    """Straggler episodes hitting single GPUs instead of whole nodes.

    The per-device analogue of :func:`rolling_straggler_timeline`: each
    episode throttles one device slot to ``severity`` of its healthy
    throughput, then clears it.  One slow GPU demotes only its island's spec
    class (the island paces on its slowest alive member), so the
    heterogeneity-aware planner steers heavy MetaOps away from the afflicted
    island while the rest of the cluster keeps its full rate.  Episodes on one
    slot never overlap or touch (a zero-gap pair's same-iteration clear/onset
    would apply in insertion order and wipe the later episode); colliding
    draws are redrawn, saturated slots skipped.
    """
    if num_nodes <= 0 or devices_per_node <= 0:
        raise ElasticEventError("cluster dimensions must be positive")
    if total_iterations <= 1:
        raise ElasticEventError("total_iterations must exceed 1")
    length = (
        episode_iterations if episode_iterations is not None else total_iterations // 5
    )
    length = max(1, length)
    rng = random.Random(seed)
    timeline = EventTimeline()
    slots = [(n, d) for n in range(num_nodes) for d in range(devices_per_node)]
    busy: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for _ in range(num_episodes):
        slot = slots[rng.randrange(len(slots))]
        for _attempt in range(64):
            at = rng.randrange(1, total_iterations)
            end = min(at + length, total_iterations)
            if all(at > b_end or end < b_at for b_at, b_end in busy.get(slot, [])):
                break
        else:
            continue  # slot saturated with episodes; skip this one
        busy.setdefault(slot, []).append((at, end))
        node, device = slot
        timeline.add(
            ClusterEvent(
                STRAGGLER_ONSET,
                at_iteration=at,
                node=node,
                device=device,
                severity=severity,
            )
        )
        clear_at = at + length
        if clear_at < total_iterations:
            timeline.add(
                ClusterEvent(
                    STRAGGLER_CLEAR, at_iteration=clear_at, node=node, device=device
                )
            )
    return timeline


def merge_timelines(timelines: Sequence[EventTimeline]) -> EventTimeline:
    """Merge several timelines into one iteration-ordered timeline."""
    merged = EventTimeline()
    for timeline in timelines:
        for event in timeline:
            merged.add(event)
    return merged
