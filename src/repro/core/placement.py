"""Device placement: mapping wave entries to physical devices (§3.5).

The locality-aware placer follows the paper's three guidelines:

* **Intra-device-island placement** — MetaOps and the data flows between them
  prefer devices inside one island (NVLink-connected node).
* **Prioritising high communication workloads** — when not everything fits
  inside an island, the MetaOps with the largest inter-wave data-flow volume
  get the best locality.
* **Device memory balance** — parameter/optimizer state and retained
  activations are tracked per device; placement prefers the devices with the
  most free memory and falls back to alternative (less local) placements, with
  bounded backtracking, when a device would run out of memory.

A deliberately naive :class:`SequentialPlacer` is provided for the placement
ablation of Fig. 10.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, filterfalse, islice, repeat
from typing import Iterator, Sequence

from repro.cluster.topology import ClusterTopology
from repro.core.metagraph import MetaGraph, MetaOp
from repro.core.plan import PlacementResult, Wave, WaveEntry
from repro.costmodel.comm import (
    DeviceGroup,
    device_runs,
    group_link,
    group_transfer_time,
    link_transfer_time,
)
from repro.costmodel.memory import MemoryModel


class PlacementError(Exception):
    """Raised when no feasible placement exists."""


@dataclass(frozen=True)
class _IslandPool:
    """The islands an entry may use: the whole cluster or one spec class's."""

    islands: tuple[int, ...]
    island_set: frozenset[int]
    #: Devices of a spec class's islands; ``None`` for the whole cluster.
    devices: frozenset[int] | None
    largest_island: int


class _FreeLists:
    """One wave's free devices as an ascending tuple per island.

    Devices are only taken within a wave, so an island that empties stays
    empty; each pool keeps a cursor past its leading empty islands.
    """

    def __init__(self, island_devices: tuple[tuple[int, ...], ...]) -> None:
        self.lists = list(island_devices)
        self.taken: set[int] = set()
        self.num_free = sum(map(len, island_devices))
        self._cursors: dict[frozenset[int], int] = {}

    def walk(
        self, pool: _IslandPool, preferred: frozenset[int]
    ) -> Iterator[tuple[int, ...]]:
        """Non-empty free lists of ``pool``: ``preferred`` islands first, then
        the rest, each part in island order (ascending device ids)."""
        lists = self.lists
        for island in sorted(preferred):
            if lists[island]:
                yield lists[island]
        islands = pool.islands
        cursor = self._cursors.get(pool.island_set, 0)
        while cursor < len(islands) and not lists[islands[cursor]]:
            cursor += 1
        self._cursors[pool.island_set] = cursor
        for island in islice(islands, cursor, None):
            if island not in preferred and lists[island]:
                yield lists[island]

    def take(
        self, cluster: ClusterTopology, group: DeviceGroup, runs: tuple[tuple[int, int], ...]
    ) -> None:
        """Take ``group``, whose runs of consecutive ids are ``runs``.

        Every taken device was free, so a run empties the islands strictly
        inside it and leaves a gap in the ascending lists of its end islands.
        """
        members = group.members
        self.taken |= members
        self.num_free -= len(members)
        lists = self.lists
        for start, end in runs:
            first, last = cluster.island_of(start), cluster.island_of(end - 1)
            lists[first + 1 : last] = [()] * max(0, last - first - 1)
            for island in {first, last}:
                devices = lists[island]
                lo, hi = bisect_left(devices, start), bisect_left(devices, end)
                lists[island] = devices[:lo] + devices[hi:]


class _BlockMemory:
    """Device memory kept per block of devices that share one history.

    Blocks are ascending intervals of device ids, one per island at first.
    Charging a placed group splits the blocks at the group's run boundaries,
    so every device of a block has seen the same charges, holds the same
    parameter keys and (blocks never leave their island) has one capacity.
    """

    def __init__(
        self, cluster: ClusterTopology, islands: tuple[tuple[int, ...], ...], overhead: float
    ) -> None:
        self.num_devices = cluster.num_devices
        self.starts = [devices[0] for devices in islands]
        self.used = [overhead] * len(islands)
        self.keys: list[frozenset[str]] = [frozenset()] * len(islands)
        self.capacity = [cluster.spec_of(start).memory_bytes for start in self.starts]

    def spans(self, runs: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
        """Index ranges of the blocks each run of device ids intersects."""
        starts = self.starts
        return [(bisect_right(starts, start) - 1, bisect_left(starts, end)) for start, end in runs]

    def peak(self, spans: list[tuple[int, int]]) -> float:
        """The largest memory any device of the blocks in ``spans`` holds."""
        used = self.used
        return max(chain.from_iterable(used[i:j] for i, j in spans))

    def fits(self, spans: list[tuple[int, int]], extra: float) -> bool:
        """Whether every device of those blocks has room for ``extra`` bytes."""
        used, capacity = self.used, self.capacity
        return all(used[b] + extra <= capacity[b] for i, j in spans for b in range(i, j))

    def _split(self, at: int) -> None:
        if at >= self.num_devices:
            return
        i = bisect_right(self.starts, at) - 1
        if self.starts[i] != at:
            for column in (self.starts, self.used, self.keys, self.capacity):
                column.insert(i + 1, column[i])
            self.starts[i + 1] = at

    def charge(
        self,
        runs: tuple[tuple[int, int], ...],
        param_key: str | None,
        param_bytes: float,
        activation_bytes: float,
    ) -> None:
        """Charge a placed group: parameters on the blocks that do not hold
        ``param_key`` yet (every block when it is ``None``), then activations."""
        for start, end in runs:
            self._split(start)
            self._split(end)
        used, keys, starts = self.used, self.keys, self.starts
        for start, end in runs:
            for b in range(bisect_left(starts, start), bisect_left(starts, end)):
                if param_key is None:
                    used[b] += param_bytes
                elif param_key not in keys[b]:
                    used[b] += param_bytes
                    keys[b] = keys[b] | {param_key}
                used[b] += activation_bytes

    def per_device(self) -> dict[int, float]:
        ends = self.starts[1:] + [self.num_devices]
        blocks = zip(self.used, self.starts, ends)
        memory = chain.from_iterable(repeat(used, end - start) for used, start, end in blocks)
        return dict(enumerate(memory))


class LocalityAwarePlacer:
    """Greedy, wave-by-wave locality- and memory-aware device placement.

    ``optimized`` (the default) forms each entry's candidates from per-island
    free lists kept across a wave, scores them against each placed group's
    member and island sets, and keeps device memory per block of devices
    with one history, so the cost follows the wave entries rather than the
    device count.  ``optimized=False`` runs the reference enumeration,
    scoring and per-device memory accounting, which rescan every island and
    sort every free device for each entry; it is kept so tests can prove
    both paths place every entry identically.
    """

    def __init__(
        self,
        cluster: ClusterTopology,
        memory_model: MemoryModel | None = None,
        memory_weight: float = 0.15,
        max_backtracks: int = 32,
        optimized: bool = True,
    ) -> None:
        self.cluster = cluster
        self.memory_model = memory_model or MemoryModel()
        self.memory_weight = memory_weight
        self.max_backtracks = max_backtracks
        self.optimized = optimized
        # Per-device capacity checks are only needed on mixed-HBM clusters;
        # the homogeneous fast path keeps the scoring loop a single compare.
        self._homogeneous = cluster.is_homogeneous
        # Spec-class device pools: entries carrying a spec-class assignment
        # must be placed inside their class's islands (the scheduler budgeted
        # the class's devices for them, and their pacing assumes the class's
        # sustained rate).  Homogeneous plans never set spec_class, so these
        # pools go unused there.
        self._class_devices = {
            cls.index: frozenset(cls.device_ids) for cls in cluster.spec_classes()
        }
        self._class_islands = {
            cls.index: cls.islands for cls in cluster.spec_classes()
        }
        # Built by the first optimized place() call and reused by later ones.
        self._island_devices: tuple[tuple[int, ...], ...] | None = None
        self._pools: dict[int | None, _IslandPool] = {}

    # ------------------------------------------------------------- public API
    def place(self, waves: Sequence[Wave], metagraph: MetaGraph) -> PlacementResult:
        if not self.optimized:
            return self._place_reference(waves, metagraph)
        result = PlacementResult()
        memory = _BlockMemory(self.cluster, self._islands(), self.memory_model.framework_overhead())
        last: dict[int, DeviceGroup] = {}
        # Per call: MetaGraph.predecessors scans every edge, and the memory
        # model's byte counts depend only on the MetaOp and its device count.
        preds: dict[int, list[tuple[int, float]]] = {i: [] for i in metagraph.metaops}
        for (src, dst), volume in metagraph.edges.items():
            preds[dst].append((src, volume))
        byte_counts: dict[tuple[int, int], tuple[float, float]] = {}

        def priority(entry: WaveEntry) -> float:
            # _communication_priority, over the predecessor lists.
            volume = 0.0
            if entry.metaop_index in last:
                metaop = metagraph.metaop(entry.metaop_index)
                volume += metaop.representative.activation_bytes
            for pred, edge_volume in preds[entry.metaop_index]:
                if pred in last:
                    volume += edge_volume
            return volume

        for wave in waves:
            free = _FreeLists(self._islands())
            for entry in sorted(wave.entries, key=priority, reverse=True):
                metaop = metagraph.metaop(entry.metaop_index)
                key = (entry.metaop_index, entry.n_devices)
                counts = byte_counts.get(key)
                if counts is None:
                    op = metaop.representative
                    counts = (
                        self.memory_model.parameter_state_bytes(op, entry.n_devices),
                        self.memory_model.activation_bytes(op, entry.n_devices),
                    )
                    byte_counts[key] = counts
                group, runs = self._place_entry(
                    entry,
                    wave,
                    metaop,
                    preds[entry.metaop_index],
                    counts,
                    free,
                    memory,
                    last,
                    result,
                )
                free.take(self.cluster, group, runs)
                entry.devices = group.devices
                result.assignments[(wave.index, entry.metaop_index)] = group.devices
                last[entry.metaop_index] = group
                param_bytes, act_bytes = counts
                memory.charge(
                    runs,
                    metaop.representative.param_key,
                    param_bytes * entry.layers,
                    act_bytes * entry.layers,
                )

        result.device_memory_bytes = memory.per_device()
        return result

    # -------------------------------------------------------------- heuristics
    def _communication_priority(
        self,
        entry: WaveEntry,
        metagraph: MetaGraph,
        last: dict[int, DeviceGroup],
    ) -> float:
        metaop = metagraph.metaop(entry.metaop_index)
        volume = 0.0
        if entry.metaop_index in last:
            # Residual slice of the same MetaOp: activations of the previous
            # slice flow into this one.
            volume += metaop.representative.activation_bytes
        for pred in metagraph.predecessors(entry.metaop_index):
            if pred in last:
                volume += metagraph.edge_volume(pred, entry.metaop_index)
        return volume

    def _islands(self) -> tuple[tuple[int, ...], ...]:
        if self._island_devices is None:
            self._island_devices = tuple(map(tuple, self.cluster.islands()))
        return self._island_devices

    def _pool(self, spec_class: int | None) -> _IslandPool:
        pool = self._pools.get(spec_class)
        if pool is None:
            if spec_class is None:
                islands = tuple(range(self.cluster.num_nodes))
                devices = None
            else:
                islands = tuple(sorted(self._class_islands[spec_class]))
                devices = self._class_devices[spec_class]
            sizes = self._islands()
            pool = _IslandPool(
                islands=islands,
                island_set=frozenset(islands),
                devices=devices,
                largest_island=max(len(sizes[i]) for i in islands),
            )
            self._pools[spec_class] = pool
        return pool

    def _candidates(
        self,
        n: int,
        pool: _IslandPool,
        free: _FreeLists,
        sources: list[DeviceGroup],
    ) -> list[tuple[int, ...]]:
        """Candidate device groups for an entry of ``n`` devices, best-first.

        The same candidates, in the same order, as
        :meth:`_candidate_blocks_reference`: the first ``n`` free devices the
        entry's placed neighbours (``sources``) hold, then each island with
        ``n`` free devices, then a spill over the islands in walk order.
        """
        preferred_free = filterfalse(
            free.taken.__contains__,
            dict.fromkeys(chain.from_iterable(group.devices for group in sources)),
        )
        allowed = pool.devices
        if allowed is not None:
            preferred_free = filter(allowed.__contains__, preferred_free)
        candidates: list[tuple[int, ...]] = []
        first = tuple(islice(preferred_free, n))
        if len(first) == n:
            candidates.append(first)

        preferred = frozenset().union(*(group.islands for group in sources))
        if allowed is not None:
            preferred &= pool.island_set
        if n <= pool.largest_island:
            candidates.extend(
                devices[:n] for devices in free.walk(pool, preferred) if len(devices) >= n
            )
        spill: list[int] = []
        for devices in free.walk(pool, preferred):
            spill.extend(devices[: n - len(spill)])
            if len(spill) == n:
                candidates.append(tuple(spill))
                break
        return list(dict.fromkeys(candidates))

    def _place_entry(
        self,
        entry: WaveEntry,
        wave: Wave,
        metaop: MetaOp,
        preds: list[tuple[int, float]],
        byte_counts: tuple[float, float],
        free: _FreeLists,
        memory: _BlockMemory,
        last: dict[int, DeviceGroup],
        result: PlacementResult,
    ) -> tuple[DeviceGroup, tuple[tuple[int, int], ...]]:
        """The chosen group and its runs of consecutive device ids."""
        if free.num_free < entry.n_devices:
            raise PlacementError(
                f"Wave {wave.index}: MetaOp {entry.metaop_index} needs "
                f"{entry.n_devices} devices but only {free.num_free} are free"
            )
        # Placed neighbours and the volume each sends: the previous slice of
        # the same MetaOp first, then the predecessors in graph order.
        sources: list[tuple[DeviceGroup, float]] = []
        prev = last.get(entry.metaop_index)
        if prev is not None:
            sources.append((prev, metaop.representative.activation_bytes))
        for pred, volume in preds:
            group = last.get(pred)
            if group is not None:
                sources.append((group, volume))

        candidates = self._candidates(
            entry.n_devices,
            self._pool(entry.spec_class),
            free,
            [group for group, _ in sources],
        )
        if not candidates:
            raise PlacementError(
                f"No candidate device block of size {entry.n_devices} for MetaOp "
                f"{entry.metaop_index} in wave {wave.index}"
            )

        cluster = self.cluster
        param_bytes, act_bytes = byte_counts
        # _entry_device_bytes, from the memoized counts.
        per_device_bytes = (param_bytes + act_bytes) * entry.layers
        capacity = cluster.min_memory_bytes
        scored: list[tuple[float, bool, float, DeviceGroup, tuple]] = []
        for devices in candidates:
            runs = device_runs(devices)
            # DeviceGroup.of, with the islands read per run.
            target = DeviceGroup(devices, frozenset(devices), cluster.islands_of_runs(runs))
            comm = 0.0
            for source, volume in sources:
                comm += link_transfer_time(
                    cluster, group_link(source, target), source, target, volume
                )
            spans = memory.spans(runs)
            # Float addition is monotonic, so this equals the largest
            # per-device projection.
            peak = memory.peak(spans) + per_device_bytes
            if self._homogeneous:
                fits = peak <= capacity
            else:
                fits = memory.fits(spans, per_device_bytes)
            score = comm + self.memory_weight * (peak / capacity) * max(comm, 1e-6)
            scored.append((score, fits, peak, target, runs))

        feasible = [item for item in scored if item[1]]
        if feasible:
            best = min(feasible, key=lambda item: item[0])
        else:
            self._record_oom(wave, entry, result)
            best = min(scored, key=lambda item: item[2])
        return best[3], best[4]

    def _record_oom(self, wave: Wave, entry: WaveEntry, result: PlacementResult) -> None:
        """All candidates would exceed memory: record the OOM; the caller picks
        the lowest projected peak (best memory balance, §3.5 backtracking)."""
        result.oom_events.append((wave.index, entry.metaop_index))
        result.backtracks += 1
        if result.backtracks > self.max_backtracks:
            raise PlacementError(
                "Exceeded backtracking budget while balancing device memory"
            )

    # ------------------------------------------------------ reference path
    def _place_reference(self, waves: Sequence[Wave], metagraph: MetaGraph) -> PlacementResult:
        result = PlacementResult()
        memory = [self.memory_model.framework_overhead()] * self.cluster.num_devices
        # Devices already holding each shared parameter key.
        holders: dict[str, set[int]] = {}
        last: dict[int, DeviceGroup] = {}

        for wave in waves:
            free = set(range(self.cluster.num_devices))
            entries = sorted(
                wave.entries,
                key=lambda e: self._communication_priority(e, metagraph, last),
                reverse=True,
            )
            for entry in entries:
                group = DeviceGroup.of(
                    self.cluster,
                    self._place_entry_reference(entry, wave, metagraph, free, memory, last, result),
                )
                free -= group.members
                devices = group.devices
                entry.devices = devices
                result.assignments[(wave.index, entry.metaop_index)] = devices
                last[entry.metaop_index] = group
                self._charge_memory_reference(entry, devices, metagraph, memory, holders)

        result.device_memory_bytes = dict(enumerate(memory))
        return result

    def _candidate_blocks_reference(
        self,
        entry: WaveEntry,
        free: set[int],
        preferred: list[int],
    ) -> list[tuple[int, ...]]:
        """Enumerate candidate device groups for an entry, best-first.

        Entries bound to a spec class only see that class's islands and
        devices; classic entries see the whole cluster.
        """
        n = entry.n_devices
        candidates: list[tuple[int, ...]] = []

        if entry.spec_class is not None:
            allowed = self._class_devices[entry.spec_class]
            free = {d for d in free if d in allowed}
            preferred = [d for d in preferred if d in allowed]
            island_pool: Sequence[int] = self._class_islands[entry.spec_class]
        else:
            island_pool = range(self.cluster.num_nodes)

        # Preferred devices may be suggested by several sources (previous slice
        # of the same MetaOp, several predecessors); keep first occurrences.
        preferred = list(dict.fromkeys(preferred))
        preferred_free = [d for d in preferred if d in free]
        if len(preferred_free) >= n:
            candidates.append(tuple(preferred_free[:n]))

        preferred_islands = {self.cluster.island_of(d) for d in preferred}
        islands = sorted(
            island_pool,
            key=lambda i: (i not in preferred_islands, i),
        )
        for island in islands:
            island_free = [d for d in self.cluster.island_devices(island) if d in free]
            if len(island_free) >= n:
                candidates.append(tuple(island_free[:n]))
        spill = sorted(free)
        if len(spill) >= n:
            # Prefer spilling devices from preferred islands first.
            spill.sort(key=lambda d: (self.cluster.island_of(d) not in preferred_islands, d))
            candidates.append(tuple(spill[:n]))
        # Deduplicate while preserving order.
        unique: list[tuple[int, ...]] = []
        seen = set()
        for cand in candidates:
            if cand not in seen:
                unique.append(cand)
                seen.add(cand)
        return unique

    def _place_entry_reference(
        self,
        entry: WaveEntry,
        wave: Wave,
        metagraph: MetaGraph,
        free: set[int],
        memory: list[float],
        last: dict[int, DeviceGroup],
        result: PlacementResult,
    ) -> tuple[int, ...]:
        if len(free) < entry.n_devices:
            raise PlacementError(
                f"Wave {wave.index}: MetaOp {entry.metaop_index} needs "
                f"{entry.n_devices} devices but only {len(free)} are free"
            )
        metaop = metagraph.metaop(entry.metaop_index)
        last_devices = {index: group.devices for index, group in last.items()}
        preferred: list[int] = list(last_devices.get(entry.metaop_index, ()))
        for pred in metagraph.predecessors(entry.metaop_index):
            preferred.extend(last_devices.get(pred, ()))

        candidates = self._candidate_blocks_reference(entry, free, preferred)
        if not candidates:
            raise PlacementError(
                f"No candidate device block of size {entry.n_devices} for MetaOp "
                f"{entry.metaop_index} in wave {wave.index}"
            )

        scored: list[tuple[float, bool, tuple[int, ...]]] = []
        per_device_bytes = self._entry_device_bytes(entry, metaop)
        # The smallest device normalises the balance score; fit checks run
        # against each device's own capacity on mixed-HBM clusters.  On a
        # homogeneous cluster both reduce to device_spec.memory_bytes and the
        # fit check is the single peak compare this hot loop always had.
        capacity = self.cluster.min_memory_bytes
        for devices in candidates:
            comm = self._transfer_cost_reference(
                entry, metaop, metagraph, devices, last_devices
            )
            projected = [memory[d] + per_device_bytes for d in devices]
            peak = max(projected)
            if self._homogeneous:
                fits = peak <= capacity
            else:
                fits = all(
                    used <= self.cluster.spec_of(d).memory_bytes
                    for used, d in zip(projected, devices)
                )
            score = comm + self.memory_weight * (peak / capacity) * max(comm, 1e-6)
            scored.append((score, fits, devices))

        feasible = [item for item in scored if item[1]]
        if feasible:
            feasible.sort(key=lambda item: item[0])
            return feasible[0][2]

        self._record_oom(wave, entry, result)
        best = min(
            scored,
            key=lambda item: max(memory[d] + per_device_bytes for d in item[2]),
        )
        return best[2]

    def _transfer_cost_reference(
        self,
        entry: WaveEntry,
        metaop,
        metagraph: MetaGraph,
        devices: tuple[int, ...],
        last_devices: dict[int, tuple[int, ...]],
    ) -> float:
        cost = 0.0
        prev = last_devices.get(entry.metaop_index)
        if prev:
            cost += group_transfer_time(
                self.cluster, prev, devices, metaop.representative.activation_bytes
            )
        for pred in metagraph.predecessors(entry.metaop_index):
            pred_devices = last_devices.get(pred)
            if pred_devices:
                cost += group_transfer_time(
                    self.cluster,
                    pred_devices,
                    devices,
                    metagraph.edge_volume(pred, entry.metaop_index),
                )
        return cost

    # ------------------------------------------------------------ memory
    def _entry_device_bytes(self, entry: WaveEntry, metaop) -> float:
        op = metaop.representative
        per_layer = self.memory_model.operator_device_bytes(op, entry.n_devices)
        return per_layer * entry.layers

    def _charge_memory_reference(
        self,
        entry: WaveEntry,
        devices: tuple[int, ...],
        metagraph: MetaGraph,
        memory: list[float],
        holders: dict[str, set[int]],
    ) -> None:
        op = metagraph.metaop(entry.metaop_index).representative
        param_bytes = self.memory_model.parameter_state_bytes(op, entry.n_devices)
        act_bytes = self.memory_model.activation_bytes(op, entry.n_devices)
        param_total = param_bytes * entry.layers
        act_total = act_bytes * entry.layers
        # Parameters shared across tasks (same param_key) are stored once per
        # device; activations accumulate for every executed layer.
        if op.param_key is None:
            fresh: Sequence[int] = devices
        else:
            held = holders.setdefault(op.param_key, set())
            fresh = [d for d in devices if d not in held]
            held.update(fresh)
        # Each device adds its parameters before its activations, as one
        # interleaved loop would.
        for device in fresh:
            memory[device] += param_total
        for device in devices:
            memory[device] += act_total


class SequentialPlacer:
    """Naive placement baseline for the Fig. 10 ablation.

    Assigns each wave entry a block of consecutive device ids starting from
    device 0 in MetaOp-index order, ignoring where previous waves placed the
    same MetaOp and ignoring island boundaries.
    """

    def __init__(
        self, cluster: ClusterTopology, memory_model: MemoryModel | None = None
    ) -> None:
        self.cluster = cluster
        self.memory_model = memory_model or MemoryModel()

    def place(self, waves: Sequence[Wave], metagraph: MetaGraph) -> PlacementResult:
        result = PlacementResult()
        memory = {
            device.device_id: self.memory_model.framework_overhead()
            for device in self.cluster.devices
        }
        for wave in waves:
            cursor = 0
            for entry in sorted(wave.entries, key=lambda e: e.metaop_index):
                devices = tuple(range(cursor, cursor + entry.n_devices))
                if cursor + entry.n_devices > self.cluster.num_devices:
                    raise PlacementError(
                        f"Wave {wave.index} does not fit on the cluster"
                    )
                cursor += entry.n_devices
                entry.devices = devices
                result.assignments[(wave.index, entry.metaop_index)] = devices
                op = metagraph.metaop(entry.metaop_index).representative
                per_device = (
                    self.memory_model.operator_device_bytes(op, entry.n_devices)
                    * entry.layers
                )
                for device in devices:
                    memory[device] += per_device
        result.device_memory_bytes = memory
        return result
