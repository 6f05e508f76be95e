"""Cluster topology: device islands, bandwidths and latencies.

The paper evaluates on an 8-node cluster where every node holds 8 NVLink-
connected A800 GPUs and nodes are interconnected with 400 Gbps InfiniBand
(§5.1).  A *device island* (§3.5) is a set of devices connected by the
high-bandwidth intra-node interconnect; the device placement pass prefers
placing MetaOps and high-volume data flows within one island.

Beyond the paper's homogeneous testbed, the topology also models the
substrates elastic scenarios produce (:mod:`repro.elastic`): islands may carry
*different* device specs (``node_specs``, e.g. a heterogeneous capacity
expansion or a throttled straggler node) and *different* device counts
(``island_sizes``, e.g. a node that lost one GPU).  Homogeneous, rectangular
clusters — the default — behave exactly as before.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.cluster.device import A800_SPEC, Device, DeviceSpec


class TopologyError(Exception):
    """Raised for invalid cluster descriptions or device id lookups."""


@dataclass(frozen=True)
class InterconnectSpec:
    """Bandwidth/latency of one link class, in bytes/s and seconds."""

    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    def transfer_time(self, volume_bytes: float) -> float:
        """Time to move ``volume_bytes`` over this link (alpha-beta model)."""
        if volume_bytes < 0:
            raise ValueError("volume must be non-negative")
        return self.latency + volume_bytes / self.bandwidth


#: NVLink within a node (~200 GB/s effective unidirectional for A800 NVLink).
DEFAULT_INTRA_ISLAND = InterconnectSpec(bandwidth=200e9, latency=5e-6)
#: 400 Gbps InfiniBand per GPU between nodes (~45 GB/s effective per link).
DEFAULT_INTER_ISLAND = InterconnectSpec(bandwidth=45e9, latency=12e-6)
#: On-device copy between two waves mapped to the same GPU.
DEFAULT_INTRA_DEVICE = InterconnectSpec(bandwidth=1200e9, latency=1e-6)


def _spec_document(spec: DeviceSpec) -> dict[str, Any]:
    """Canonical JSON document of one device spec."""
    return {
        "name": spec.name,
        "peak_flops": spec.peak_flops,
        "memory_bytes": spec.memory_bytes,
        "achievable_fraction": spec.achievable_fraction,
    }


@dataclass(frozen=True)
class SpecClass:
    """One equivalence class of a cluster's devices under ``DeviceSpec``.

    Devices sharing a spec form a *spec class* (§3.5's device islands
    generalised to mixed hardware): device specs are assigned per island, so a
    class is always a union of whole islands.  The heterogeneity-aware planner
    fits one scaling curve per (MetaOp, spec class), allocates each MetaOp
    devices from a single class, and paces every wave entry on its class's
    sustained throughput instead of the cluster-wide floor.
    """

    index: int
    spec: DeviceSpec
    islands: tuple[int, ...]
    device_ids: tuple[int, ...]

    @property
    def num_devices(self) -> int:
        return len(self.device_ids)

    @property
    def achievable_flops(self) -> float:
        """Sustained FLOP/s of each device in this class (the pacing rate)."""
        return self.spec.achievable_flops

    @property
    def capacity_flops(self) -> float:
        """Aggregate sustained FLOP/s of the whole class."""
        return self.num_devices * self.spec.achievable_flops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpecClass({self.index}: {self.spec.name!r} x{self.num_devices}, "
            f"islands={list(self.islands)})"
        )


@dataclass
class ClusterTopology:
    """A GPU cluster organised into device islands (nodes).

    Parameters
    ----------
    num_nodes:
        Number of nodes (device islands).
    devices_per_node:
        Number of GPUs per node (nominal; per-island counts may deviate via
        ``island_sizes``).
    device_spec:
        Accelerator specification shared by all devices unless ``node_specs``
        overrides it per island.
    intra_island / inter_island / intra_device:
        Interconnect specifications of the three link classes used by the
        placement pass and the runtime engine.
    island_sizes:
        Optional per-island device counts for irregular clusters (an island
        that lost devices).  Length must equal ``num_nodes``.
    node_specs:
        Optional per-island device specs for heterogeneous clusters.  Length
        must equal ``num_nodes``.

    Topologies are treated as immutable after construction (the planner,
    placement pass and caches all rely on it); elastic scenarios derive a
    *fresh* topology per substrate change instead of mutating one.
    """

    num_nodes: int
    devices_per_node: int
    device_spec: DeviceSpec = A800_SPEC
    intra_island: InterconnectSpec = DEFAULT_INTRA_ISLAND
    inter_island: InterconnectSpec = DEFAULT_INTER_ISLAND
    intra_device: InterconnectSpec = DEFAULT_INTRA_DEVICE
    island_sizes: tuple[int, ...] | None = None
    node_specs: tuple[DeviceSpec, ...] | None = None
    devices: list[Device] = field(init=False)
    _island_groups: list[list[int]] = field(init=False, repr=False)
    _node_ids: list[int] = field(init=False, repr=False)
    _signature: str | None = field(init=False, repr=False, default=None)
    _spec_classes: tuple[SpecClass, ...] | None = field(
        init=False, repr=False, default=None
    )

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise TopologyError("num_nodes must be positive")
        if self.devices_per_node <= 0:
            raise TopologyError("devices_per_node must be positive")
        if self.island_sizes is not None:
            self.island_sizes = tuple(self.island_sizes)
            if len(self.island_sizes) != self.num_nodes:
                raise TopologyError(
                    f"island_sizes has {len(self.island_sizes)} entries, "
                    f"cluster has {self.num_nodes} nodes"
                )
            if any(size <= 0 for size in self.island_sizes):
                raise TopologyError("island_sizes entries must be positive")
        if self.node_specs is not None:
            self.node_specs = tuple(self.node_specs)
            if len(self.node_specs) != self.num_nodes:
                raise TopologyError(
                    f"node_specs has {len(self.node_specs)} entries, "
                    f"cluster has {self.num_nodes} nodes"
                )
        sizes = self.island_sizes or (self.devices_per_node,) * self.num_nodes
        self.devices = []
        for node, size in enumerate(sizes):
            spec = self.node_specs[node] if self.node_specs else self.device_spec
            for local in range(size):
                self.devices.append(
                    Device(
                        device_id=len(self.devices),
                        node_id=node,
                        local_rank=local,
                        spec=spec,
                    )
                )
        # The device list is immutable after construction, so the island
        # grouping is built exactly once: the placement pass queries it per
        # (entry, island) and must not pay an O(num_devices) rebuild per call.
        groups: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for dev in self.devices:
            groups[dev.node_id].append(dev.device_id)
        self._island_groups = groups
        self._node_ids = [dev.node_id for dev in self.devices]

    # ------------------------------------------------------------------ sizes
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def is_homogeneous(self) -> bool:
        """True when every device carries the same spec."""
        if self.node_specs is None:
            return True
        return all(spec == self.device_spec for spec in self.node_specs)

    @property
    def total_peak_flops(self) -> float:
        if self.node_specs is None:
            return self.num_devices * self.device_spec.peak_flops
        return sum(dev.spec.peak_flops for dev in self.devices)

    @property
    def total_memory_bytes(self) -> float:
        if self.node_specs is None:
            return self.num_devices * self.device_spec.memory_bytes
        return sum(dev.spec.memory_bytes for dev in self.devices)

    @property
    def total_achievable_flops(self) -> float:
        if self.node_specs is None:
            return self.num_devices * self.device_spec.achievable_flops
        return sum(dev.spec.achievable_flops for dev in self.devices)

    @property
    def min_achievable_flops(self) -> float:
        """Sustained FLOP/s of the slowest device.

        Wave entries execute in lockstep across their device group, so a
        conservative planner paces every group on its slowest member; on a
        homogeneous cluster this equals ``device_spec.achievable_flops``.
        """
        if self.node_specs is None:
            return self.device_spec.achievable_flops
        return min(spec.achievable_flops for spec in self.node_specs)

    @property
    def min_memory_bytes(self) -> float:
        """HBM capacity of the smallest device."""
        if self.node_specs is None:
            return self.device_spec.memory_bytes
        return min(spec.memory_bytes for spec in self.node_specs)

    @property
    def max_peak_flops(self) -> float:
        """Peak FLOP/s of the fastest device (utilization-trace normalizer)."""
        if self.node_specs is None:
            return self.device_spec.peak_flops
        return max(spec.peak_flops for spec in self.node_specs)

    # ---------------------------------------------------------------- lookups
    def device(self, device_id: int) -> Device:
        if not 0 <= device_id < self.num_devices:
            raise TopologyError(
                f"Device id {device_id} out of range [0, {self.num_devices})"
            )
        return self.devices[device_id]

    def spec_of(self, device_id: int) -> DeviceSpec:
        """Device spec of one device (per-island on heterogeneous clusters)."""
        return self.device(device_id).spec

    def island_of(self, device_id: int) -> int:
        """Return the island (node) index that hosts ``device_id``."""
        # Flat lookup table instead of a Device attribute chase: link
        # classification and placement scoring call this per device per
        # candidate, making it the hottest topology query.
        if device_id < 0:
            raise TopologyError(
                f"Device id {device_id} out of range [0, {self.num_devices})"
            )
        try:
            return self._node_ids[device_id]
        except IndexError:
            raise TopologyError(
                f"Device id {device_id} out of range [0, {self.num_devices})"
            ) from None

    def islands_of(self, device_ids: Sequence[int]) -> frozenset[int]:
        """The islands hosting ``device_ids``, read from the flat device table."""
        node_ids = self._node_ids
        if device_ids and (min(device_ids) < 0 or max(device_ids) >= len(node_ids)):
            bad = next(d for d in device_ids if not 0 <= d < len(node_ids))
            raise TopologyError(
                f"Device id {bad} out of range [0, {self.num_devices})"
            )
        return frozenset(map(node_ids.__getitem__, device_ids))

    def islands(self) -> list[list[int]]:
        """Device ids grouped by island, in island order (copy, safe to edit)."""
        return [list(group) for group in self._island_groups]

    def island_devices(self, island: int) -> list[int]:
        """Device ids of one island (copy of the precomputed group)."""
        if not 0 <= island < self.num_nodes:
            raise TopologyError(f"Island {island} out of range [0, {self.num_nodes})")
        # Copying one island (devices_per_node entries) keeps callers free to
        # mutate the result without corrupting the cached grouping, while
        # avoiding the old per-call rebuild of every island.
        return list(self._island_groups[island])

    def same_island(self, a: int, b: int) -> bool:
        return self.island_of(a) == self.island_of(b)

    # ----------------------------------------------------------- spec classes
    def spec_classes(self) -> tuple[SpecClass, ...]:
        """Devices partitioned by :class:`~repro.cluster.device.DeviceSpec`.

        Specs are per-island, so every class is a union of whole islands.  The
        ordering is *stable*: classes are sorted fastest first (descending
        sustained FLOP/s, then descending peak FLOP/s and memory, then spec
        name, then first island index), so the heterogeneity-aware planner's
        "heavy MetaOps onto fast islands" preference is deterministic.  A
        homogeneous cluster collapses to a single class covering everything.

        The partition is a pure function of ``node_specs``/``island_sizes``,
        both of which :meth:`canonical_dict` embeds — so :meth:`signature`
        covers the spec-class structure by construction, and any change to the
        grouping changes the signature.
        """
        if self._spec_classes is None:
            grouped: dict[tuple, tuple[DeviceSpec, list[int]]] = {}
            specs = self.node_specs or (self.device_spec,) * self.num_nodes
            for island, spec in enumerate(specs):
                key = (
                    spec.name,
                    spec.peak_flops,
                    spec.memory_bytes,
                    spec.achievable_fraction,
                )
                if key in grouped:
                    grouped[key][1].append(island)
                else:
                    grouped[key] = (spec, [island])
            ordered = sorted(
                grouped.values(),
                key=lambda entry: (
                    -entry[0].achievable_flops,
                    -entry[0].peak_flops,
                    -entry[0].memory_bytes,
                    entry[0].name,
                    entry[1][0],
                ),
            )
            self._spec_classes = tuple(
                SpecClass(
                    index=index,
                    spec=spec,
                    islands=tuple(islands),
                    device_ids=tuple(
                        device_id
                        for island in islands
                        for device_id in self._island_groups[island]
                    ),
                )
                for index, (spec, islands) in enumerate(ordered)
            )
        return self._spec_classes

    @property
    def num_spec_classes(self) -> int:
        return len(self.spec_classes())

    def spec_class_of_island(self, island: int) -> int:
        """Spec-class index of one island."""
        if not 0 <= island < self.num_nodes:
            raise TopologyError(f"Island {island} out of range [0, {self.num_nodes})")
        for cls in self.spec_classes():
            if island in cls.islands:
                return cls.index
        raise TopologyError(  # pragma: no cover - partition covers all islands
            f"Island {island} belongs to no spec class"
        )

    def spec_class_of(self, device_id: int) -> int:
        """Spec-class index of the island hosting ``device_id``."""
        return self.spec_class_of_island(self.island_of(device_id))

    # ------------------------------------------------------------------ links
    def link_between(self, src: int, dst: int) -> InterconnectSpec:
        """Interconnect spec of the link class connecting two devices."""
        if src == dst:
            return self.intra_device
        if self.same_island(src, dst):
            return self.intra_island
        return self.inter_island

    def bandwidth_between(self, src: int, dst: int) -> float:
        return self.link_between(src, dst).bandwidth

    def group_bandwidth(self, device_ids: Sequence[int]) -> InterconnectSpec:
        """Effective link spec for a collective over ``device_ids``.

        Collectives inside one island run at NVLink bandwidth.  Collectives
        spanning islands are bottlenecked by the InfiniBand fabric, but every
        GPU drives its own NIC (rail-optimised clusters), so the effective
        cross-island bandwidth of a hierarchical all-reduce scales with the
        number of participating devices per island, capped by the intra-island
        bandwidth.
        """
        ids = list(device_ids)
        if not ids:
            raise TopologyError("Device group must not be empty")
        if len(ids) == 1:
            return self.intra_device
        islands = self.islands_of(ids)
        if len(islands) == 1:
            return self.intra_island
        devices_per_island = len(ids) / len(islands)
        effective = min(
            self.intra_island.bandwidth,
            self.inter_island.bandwidth * max(1.0, devices_per_island),
        )
        return InterconnectSpec(
            bandwidth=effective, latency=self.inter_island.latency
        )

    # -------------------------------------------------------------- identity
    def canonical_dict(self) -> dict[str, Any]:
        """Canonical JSON document fully describing this topology.

        The planning-service fingerprint embeds it verbatim, and
        :meth:`signature` hashes it: any structural change — island count or
        sizes, a device spec (including its ``achievable_fraction``, which
        straggler events degrade), an interconnect constant — produces a
        different document.
        """

        def link(spec: InterconnectSpec) -> list[float]:
            return [spec.bandwidth, spec.latency]

        sizes = self.island_sizes or (self.devices_per_node,) * self.num_nodes
        # Per-island specs are always materialized so that a uniform cluster
        # described via node_specs and one described via device_spec alone
        # produce identical documents (and therefore identical signatures).
        specs = self.node_specs or (self.device_spec,) * self.num_nodes
        return {
            "num_nodes": self.num_nodes,
            "devices_per_node": self.devices_per_node,
            "island_sizes": list(sizes),
            "device": _spec_document(self.device_spec),
            "node_specs": [_spec_document(spec) for spec in specs],
            "intra_island": link(self.intra_island),
            "inter_island": link(self.inter_island),
            "intra_device": link(self.intra_device),
        }

    def signature(self) -> str:
        """Content hash of :meth:`canonical_dict` (cached; topology is immutable).

        Keys everything that must never survive a substrate change: the
        estimator's fitted-curve cache, curve pools, and the per-topology
        planner map of the elastic runner.  Two independently constructed but
        structurally identical topologies share one signature.
        """
        if self._signature is None:
            payload = json.dumps(
                self.canonical_dict(), sort_keys=True, separators=(",", ":")
            )
            self._signature = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self._signature

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterTopology(nodes={self.num_nodes}, gpus_per_node="
            f"{self.devices_per_node}, device={self.device_spec.name!r})"
        )


def make_cluster(
    num_devices: int,
    devices_per_node: int = 8,
    device_spec: DeviceSpec = A800_SPEC,
) -> ClusterTopology:
    """Build a cluster with ``num_devices`` GPUs packed into 8-GPU nodes.

    Mirrors the paper's experimental clusters: 8, 16, 32, 64 or 256 GPUs in
    nodes of 8.  Clusters smaller than one node become a single island.
    """
    if num_devices <= 0:
        raise TopologyError("num_devices must be positive")
    per_node = min(devices_per_node, num_devices)
    if num_devices % per_node != 0:
        raise TopologyError(
            f"num_devices={num_devices} is not a multiple of devices_per_node={per_node}"
        )
    return ClusterTopology(
        num_nodes=num_devices // per_node,
        devices_per_node=per_node,
        device_spec=device_spec,
    )


def make_heterogeneous_cluster(
    node_specs: Sequence[DeviceSpec],
    devices_per_node: int = 8,
    island_sizes: Sequence[int] | None = None,
) -> ClusterTopology:
    """Build a cluster with one island per entry of ``node_specs``.

    ``island_sizes`` optionally gives each island its own device count
    (default: ``devices_per_node`` everywhere).  The first spec doubles as the
    cluster's nominal ``device_spec``.
    """
    specs = tuple(node_specs)
    if not specs:
        raise TopologyError("node_specs must not be empty")
    return ClusterTopology(
        num_nodes=len(specs),
        devices_per_node=devices_per_node,
        device_spec=specs[0],
        island_sizes=tuple(island_sizes) if island_sizes is not None else None,
        node_specs=specs,
    )
