"""Mutable cluster view: applies events, derives fresh immutable topologies.

:class:`~repro.cluster.topology.ClusterTopology` is immutable after
construction — the planner, the placement pass and every cache key depend on
that.  Elastic scenarios therefore never mutate a topology: the
:class:`ElasticClusterView` tracks the *actual* substrate (which nodes exist,
which devices are alive, which nodes straggle) under **stable identifiers**,
and :meth:`ElasticClusterView.snapshot` derives a fresh, valid topology from
the current state — islands regrouped from the surviving devices, device ids
remapped contiguously, straggling nodes carrying a degraded spec.

The snapshot also records the mapping between stable device keys and the
derived topology's contiguous device ids; the plan-migration cost model uses
two snapshots' mappings to trace where a parameter shard physically lives
across a replan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.device import DeviceSpec
from repro.cluster.topology import (
    DEFAULT_INTER_ISLAND,
    DEFAULT_INTRA_DEVICE,
    DEFAULT_INTRA_ISLAND,
    ClusterTopology,
    InterconnectSpec,
)
from repro.elastic.events import (
    DEVICE_FAILURE,
    DEVICE_RECOVERY,
    NODE_JOIN,
    NODE_LEAVE,
    STRAGGLER_CLEAR,
    STRAGGLER_ONSET,
    ClusterEvent,
    ElasticEventError,
)


class ElasticViewError(Exception):
    """Raised when an event cannot be applied to the current cluster state."""


def device_key(node: int, device: int) -> str:
    """Stable identity of one physical device: node id + per-node slot."""
    return f"n{node}:d{device}"


@dataclass
class _NodeState:
    """Mutable state of one physical node under the view's stable node id.

    Straggler throttling is tracked *per device slot* (``factors[slot]`` is
    the remaining throughput fraction of that GPU).  A node-scoped straggler
    event sets every slot; a device-scoped one sets only its slot.  The node's
    effective spec paces on the slowest *alive* member — devices in one island
    execute wave entries in lockstep, so one slow GPU demotes exactly its own
    island's spec class and nothing else.
    """

    spec: DeviceSpec
    alive: list[bool]
    factors: list[float]

    @property
    def num_alive(self) -> int:
        return sum(self.alive)

    @property
    def straggler_factor(self) -> float:
        """Throughput fraction of the slowest alive device (1.0 = healthy)."""
        alive_factors = [f for f, up in zip(self.factors, self.alive) if up]
        if not alive_factors:
            return 1.0
        return min(alive_factors)

    @property
    def effective_spec(self) -> DeviceSpec:
        return self.spec.degraded(self.straggler_factor)


@dataclass(frozen=True, eq=False)
class ElasticSnapshot:
    """An immutable topology derived from the view, plus the id mapping.

    ``device_keys[i]`` is the stable key of the device holding contiguous id
    ``i`` in ``topology``; ``key_to_id`` is the inverse.  Keys of dead or
    departed devices are absent from both.  ``node_ids[j]`` is the stable node
    id behind island ``j`` of the derived topology.
    """

    topology: ClusterTopology
    device_keys: tuple[str, ...]
    key_to_id: dict[str, int]
    node_ids: tuple[int, ...]

    @property
    def signature(self) -> str:
        return self.topology.signature()

    def id_of(self, key: str) -> int | None:
        """Contiguous device id of a stable key, or ``None`` if gone."""
        return self.key_to_id.get(key)

    def spec_of_node(self, node_id: int) -> "DeviceSpec | None":
        """Effective spec of a stable node id, or ``None`` if absent."""
        try:
            island = self.node_ids.index(node_id)
        except ValueError:
            return None
        specs = self.topology.node_specs
        return specs[island] if specs is not None else self.topology.device_spec


class ElasticClusterView:
    """Tracks the physical substrate across cluster events.

    Parameters mirror :func:`~repro.cluster.topology.make_cluster`: the view
    starts from a healthy, homogeneous cluster and evolves from there.  Nodes
    receive monotonically increasing stable ids — a departed node's id is
    never recycled, so event streams can never alias an old node with a
    late-joining one.
    """

    def __init__(
        self,
        num_nodes: int,
        devices_per_node: int,
        device_spec: DeviceSpec,
        intra_island: InterconnectSpec = DEFAULT_INTRA_ISLAND,
        inter_island: InterconnectSpec = DEFAULT_INTER_ISLAND,
        intra_device: InterconnectSpec = DEFAULT_INTRA_DEVICE,
    ) -> None:
        if num_nodes <= 0 or devices_per_node <= 0:
            raise ElasticViewError("cluster dimensions must be positive")
        self.devices_per_node = devices_per_node
        self.intra_island = intra_island
        self.inter_island = inter_island
        self.intra_device = intra_device
        self._nodes: dict[int, _NodeState] = {
            node: _NodeState(
                spec=device_spec,
                alive=[True] * devices_per_node,
                factors=[1.0] * devices_per_node,
            )
            for node in range(num_nodes)
        }
        self._next_node_id = num_nodes
        self.events_applied = 0

    @classmethod
    def from_cluster(cls, cluster: ClusterTopology) -> "ElasticClusterView":
        """Start from an existing (healthy, rectangular) topology."""
        view = cls(
            num_nodes=cluster.num_nodes,
            devices_per_node=cluster.devices_per_node,
            device_spec=cluster.device_spec,
            intra_island=cluster.intra_island,
            inter_island=cluster.inter_island,
            intra_device=cluster.intra_device,
        )
        if cluster.node_specs is not None:
            for node, spec in enumerate(cluster.node_specs):
                view._nodes[node].spec = spec
        if cluster.island_sizes is not None:
            for node, size in enumerate(cluster.island_sizes):
                view._nodes[node].alive = [True] * size
                view._nodes[node].factors = [1.0] * size
        return view

    # ------------------------------------------------------------ inspection
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def straggling_nodes(self) -> list[int]:
        return sorted(
            node_id
            for node_id, node in self._nodes.items()
            if node.straggler_factor < 1.0
        )

    # ------------------------------------------------------------ mutation
    def apply(self, event: ClusterEvent) -> None:
        """Apply one event to the view, validating it against current state.

        Failure/recovery/leave events are strict (failing a dead device or
        leaving twice is a scenario bug).  Straggler events are idempotent:
        a second onset replaces the severity, a clear on a healthy node is a
        no-op — rolling-straggler timelines may overlap episodes on one node.
        """
        kind = event.kind
        if kind == NODE_JOIN:
            self._nodes[self._next_node_id] = _NodeState(
                spec=event.spec,
                alive=[True] * event.num_devices,
                factors=[1.0] * event.num_devices,
            )
            self._next_node_id += 1
        elif kind == NODE_LEAVE:
            self._node(event)  # validate the node exists
            del self._nodes[event.node]
        elif kind == DEVICE_FAILURE:
            node = self._node(event)
            self._check_slot(event, node)
            if not node.alive[event.device]:
                raise ElasticViewError(
                    f"{device_key(event.node, event.device)} is already down"
                )
            node.alive[event.device] = False
        elif kind == DEVICE_RECOVERY:
            node = self._node(event)
            self._check_slot(event, node)
            if node.alive[event.device]:
                raise ElasticViewError(
                    f"{device_key(event.node, event.device)} is already up"
                )
            node.alive[event.device] = True
        elif kind == STRAGGLER_ONSET:
            node = self._node(event)
            if event.device is not None:
                self._check_slot(event, node)
                node.factors[event.device] = event.severity
            else:
                node.factors = [event.severity] * len(node.factors)
        elif kind == STRAGGLER_CLEAR:
            node = self._node(event)
            if event.device is not None:
                self._check_slot(event, node)
                node.factors[event.device] = 1.0
            else:
                node.factors = [1.0] * len(node.factors)
        else:  # pragma: no cover - ClusterEvent validates kinds
            raise ElasticEventError(f"Unknown event kind {kind!r}")
        self.events_applied += 1

    def apply_all(self, events: list[ClusterEvent]) -> None:
        for event in events:
            self.apply(event)

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> ElasticSnapshot:
        """Derive a fresh, valid topology from the current state.

        Islands are regrouped from the nodes that still hold at least one
        alive device (in stable node-id order), device ids are remapped
        contiguously, and straggling nodes carry their degraded spec.  The
        view must retain at least one alive device.
        """
        island_sizes: list[int] = []
        node_specs: list[DeviceSpec] = []
        node_ids: list[int] = []
        keys: list[str] = []
        for node_id in sorted(self._nodes):
            node = self._nodes[node_id]
            alive_slots = [slot for slot, up in enumerate(node.alive) if up]
            if not alive_slots:
                continue
            island_sizes.append(len(alive_slots))
            node_specs.append(node.effective_spec)
            node_ids.append(node_id)
            keys.extend(device_key(node_id, slot) for slot in alive_slots)
        if not island_sizes:
            raise ElasticViewError("no alive devices left to build a topology from")
        topology = ClusterTopology(
            num_nodes=len(island_sizes),
            devices_per_node=max(island_sizes),
            device_spec=node_specs[0],
            intra_island=self.intra_island,
            inter_island=self.inter_island,
            intra_device=self.intra_device,
            island_sizes=tuple(island_sizes),
            node_specs=tuple(node_specs),
        )
        return ElasticSnapshot(
            topology=topology,
            device_keys=tuple(keys),
            key_to_id={key: index for index, key in enumerate(keys)},
            node_ids=tuple(node_ids),
        )

    # ------------------------------------------------------------ internals
    def _node(self, event: ClusterEvent) -> _NodeState:
        node = self._nodes.get(event.node)
        if node is None:
            raise ElasticViewError(f"No such node {event.node} (it left or never joined)")
        return node

    @staticmethod
    def _check_slot(event: ClusterEvent, node: _NodeState) -> None:
        if not 0 <= event.device < len(node.alive):
            raise ElasticViewError(
                f"Node {event.node} has no device slot {event.device}"
            )
