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
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.cluster.topology import ClusterTopology
from repro.core.metagraph import MetaGraph, MetaOp
from repro.core.plan import BlockMemoryMap, PlacementResult, Wave, WaveEntry
from repro.costmodel.comm import DeviceGroup, group_transfer_time, link_transfer_times
from repro.costmodel.memory import MemoryModel

#: A half-open run ``(start, end)`` of consecutive device ids.
Run = tuple[int, int]


class PlacementError(Exception):
    """Raised when no feasible placement exists."""


@dataclass(frozen=True)
class _IslandPool:
    """The devices an entry may use: the whole cluster or one spec class's."""

    #: Ascending runs of a spec class's devices; ``None`` for the whole cluster.
    runs: tuple[Run, ...] | None
    largest_island: int


class _Candidate(NamedTuple):
    """A candidate group: its ids in placement order and as a set.

    ``order`` lists the runs whose ids, run by run, are the group's device
    tuple; ``runs`` are its maximal runs in ascending order; ``island`` is
    its only island, or ``None`` when it spans several.  ``remote`` marks a
    single-island candidate on an island no placed neighbour uses.
    """

    order: tuple[Run, ...]
    runs: tuple[Run, ...]
    island: int | None
    remote: bool = False


def _intersect(a: Sequence[Run], b: Sequence[Run]) -> list[Run]:
    """The ids two ascending lists of disjoint runs share, as ascending runs."""
    common: list[Run] = []
    i = j = 0
    while i < len(a) and j < len(b):
        a_start, a_end = a[i]
        b_start, b_end = b[j]
        start = a_start if a_start > b_start else b_start
        end = a_end if a_end < b_end else b_end
        if start < end:
            common.append((start, end))
        if a_end < b_end:
            i += 1
        else:
            j += 1
    return common


def _subtract(a: Sequence[Run], b: Sequence[Run]) -> list[Run]:
    """The ids of ascending disjoint runs ``a`` outside those of ``b``."""
    rest: list[Run] = []
    j = 0
    for start, end in a:
        while j < len(b) and b[j][1] <= start:
            j += 1
        k = j
        while k < len(b) and b[k][0] < end:
            b_start, b_end = b[k]
            if b_start > start:
                rest.append((start, b_start))
            if b_end > start:
                start = b_end
            k += 1
        if start < end:
            rest.append((start, end))
    return rest


def _head(runs: Iterable[Run], n: int) -> tuple[Run, ...] | None:
    """The first ``n`` ids of ``runs``, in order, with touching runs joined;
    ``None`` when ``runs`` hold fewer."""
    head: list[Run] = []
    for start, end in runs:
        end = min(end, start + n)
        if head and head[-1][1] == start:
            head[-1] = (head[-1][0], end)
        else:
            head.append((start, end))
        n -= end - start
        if not n:
            return tuple(head)
    return None


def _ascending(runs: tuple[Run, ...]) -> tuple[Run, ...]:
    """The maximal ascending runs of the ids ``runs`` cover."""
    if len(runs) == 1:
        return runs
    merged: list[Run] = []
    for start, end in sorted(runs):
        if merged and merged[-1][1] >= start:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return tuple(merged)


class _BlockMemory:
    """Device memory kept per block of devices that share one history.

    Blocks are ascending intervals of device ids.  At first there is one per
    run of neighbouring islands whose devices have one memory capacity: a
    single block on a homogeneous cluster.  Charging a placed group splits
    the blocks at the group's run boundaries, so every device of a block has
    seen the same charges, holds the same parameter keys and has one
    capacity.
    """

    def __init__(
        self, cluster: ClusterTopology, islands: tuple[tuple[int, ...], ...], overhead: float
    ) -> None:
        self.num_devices = cluster.num_devices
        self.starts: list[int] = []
        self.capacity: list[float] = []
        if cluster.is_homogeneous:
            islands = islands[:1]
        for devices in islands:
            capacity = cluster.spec_of(devices[0]).memory_bytes
            if not self.capacity or self.capacity[-1] != capacity:
                self.starts.append(devices[0])
                self.capacity.append(capacity)
        self.used = [overhead] * len(self.starts)
        self.keys: list[frozenset[str]] = [frozenset()] * len(self.starts)

    def spans(self, runs: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
        """Index ranges of the blocks each run of device ids intersects."""
        starts = self.starts
        return [(bisect_right(starts, start) - 1, bisect_left(starts, end)) for start, end in runs]

    def peak(self, spans: list[tuple[int, int]]) -> float:
        """The largest memory any device of the blocks in ``spans`` holds."""
        used = self.used
        if len(spans) == 1:
            i, j = spans[0]
            return used[i] if j - i == 1 else max(used[i:j])
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

    def per_device(self) -> BlockMemoryMap:
        return BlockMemoryMap(self.starts, self.used, self.num_devices)


class LocalityAwarePlacer:
    """Greedy, wave-by-wave locality- and memory-aware device placement.

    ``optimized`` (the default) keeps a wave's free devices as ascending runs
    of ids, forms each entry's candidates by run arithmetic, scores them
    with one transfer time per source and link class, keeps device memory
    per block of devices with one history, and builds a device tuple only for
    the chosen group, so the cost follows the runs rather than the device
    count.  ``optimized=False`` runs the reference enumeration, scoring and
    per-device memory accounting, which rescan every island and sort every
    free device for each entry; it is kept so tests can prove both paths
    place every entry identically.
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
        self._bounds: list[int] = []
        self._device_ids: tuple[int, ...] = ()
        self._pools: dict[int | None, _IslandPool] = {}

    # ------------------------------------------------------------- public API
    def place(self, waves: Sequence[Wave], metagraph: MetaGraph) -> PlacementResult:
        if not self.optimized:
            return self._place_reference(waves, metagraph)
        result = PlacementResult()
        memory = _BlockMemory(self.cluster, self._islands(), self.memory_model.framework_overhead())
        # Each MetaOp's last placed group, with the runs of its device tuple.
        last: dict[int, tuple[DeviceGroup, tuple[Run, ...]]] = {}
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
            # The wave's free devices, as ascending maximal runs.
            free = [(0, self.cluster.num_devices)]
            num_free = self.cluster.num_devices
            for entry in sorted(wave.entries, key=priority, reverse=True):
                if num_free < entry.n_devices:
                    raise PlacementError(
                        f"Wave {wave.index}: MetaOp {entry.metaop_index} needs "
                        f"{entry.n_devices} devices but only {num_free} are free"
                    )
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
                placed = self._place_entry(
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
                group = placed[0]
                free = _subtract(free, group.runs)
                num_free -= group.size
                entry.devices = group.devices
                result.assignments[(wave.index, entry.metaop_index)] = group.devices
                last[entry.metaop_index] = placed
                param_bytes, act_bytes = counts
                memory.charge(
                    group.runs,
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
            # Island i holds the ids range(bounds[i], bounds[i + 1]).
            self._bounds = [devices[0] for devices in self._island_devices]
            self._bounds.append(self.cluster.num_devices)
            self._device_ids = tuple(chain.from_iterable(self._island_devices))
        return self._island_devices

    def _island_of(self, device: int) -> int:
        return bisect_right(self._bounds, device) - 1

    def _pool(self, spec_class: int | None) -> _IslandPool:
        pool = self._pools.get(spec_class)
        if pool is None:
            bounds = self._bounds
            if spec_class is None:
                islands: Sequence[int] = range(self.cluster.num_nodes)
                runs = None
            else:
                islands = sorted(self._class_islands[spec_class])
                runs = _ascending(tuple((bounds[i], bounds[i + 1]) for i in islands))
            pool = _IslandPool(
                runs=runs,
                largest_island=max(bounds[i + 1] - bounds[i] for i in islands),
            )
            self._pools[spec_class] = pool
        return pool

    def _candidates(
        self,
        n: int,
        pool: _IslandPool,
        free: list[Run],
        sources: list[tuple[DeviceGroup, tuple[Run, ...]]],
    ) -> tuple[list[_Candidate], Iterator[_Candidate], _Candidate | None]:
        """Candidate device groups for an entry of ``n`` devices, best-first.

        The same candidates, in the same order, as
        :meth:`_candidate_blocks_reference` less its deduplication: the first
        ``n`` free devices the entry's placed neighbours (``sources``) hold,
        in their order, then the first ``n`` free devices of each island
        holding as many, then a spill over the islands.  Islands are walked
        the neighbours' islands first, then the rest, each part in island
        order.  Returned in three parts: the candidates on the neighbours'
        devices and islands, the remote island candidates (formed as they
        are read) and the spill.
        """
        free = free if pool.runs is None else _intersect(free, pool.runs)
        island_of = self._island_of

        # The neighbours' ids in order, each once, that are still free.
        def preferred_free() -> Iterator[Run]:
            unseen = free
            for k, (_, order) in enumerate(sources):
                if k:
                    # A device an earlier source holds keeps that position.
                    unseen = _subtract(unseen, sources[k - 1][0].runs)
                for run in order:
                    yield from _intersect(unseen, (run,))

        near: list[_Candidate] = []
        order = _head(preferred_free(), n)
        if order is not None:
            near.append(self._candidate(order))

        # The neighbours' islands, as runs of device ids.
        bounds = self._bounds
        islands = _ascending(
            tuple(
                (bounds[island_of(start)], bounds[island_of(end - 1) + 1])
                for group, _ in sources
                for start, end in group.runs
            )
        )
        preferred, rest = _intersect(free, islands), _subtract(free, islands)
        remotes: Iterator[_Candidate] = iter(())
        if n <= pool.largest_island:
            near.extend(
                _Candidate(runs, runs, island) for island, runs in self._island_heads(preferred, n)
            )
            remotes = (
                _Candidate(runs, runs, island, remote=True)
                for island, runs in self._island_heads(rest, n)
            )
        order = _head(chain(preferred, rest), n)
        return near, remotes, None if order is None else self._candidate(order)

    def _candidate(self, order: tuple[Run, ...]) -> _Candidate:
        runs = _ascending(order)
        first = self._island_of(runs[0][0])
        return _Candidate(order, runs, first if first == self._island_of(runs[-1][1] - 1) else None)

    def _island_heads(self, free: list[Run], n: int) -> Iterator[tuple[int, tuple[Run, ...]]]:
        """Each island of ascending runs ``free`` that holds ``n`` of their
        ids, in island order, with the runs of its first ``n``."""
        bounds = self._bounds
        island, runs, count = -1, [], 0
        for start, end in free:
            for i in range(self._island_of(start), self._island_of(end - 1) + 1):
                lo = start if start > bounds[i] else bounds[i]
                hi = end if end < bounds[i + 1] else bounds[i + 1]
                if i == island:
                    runs.append((lo, hi))
                    count += hi - lo
                    continue
                if count >= n:
                    yield island, _head(runs, n)
                island, runs, count = i, [(lo, hi)], hi - lo
        if count >= n:
            yield island, _head(runs, n)

    def _place_entry(
        self,
        entry: WaveEntry,
        wave: Wave,
        metaop: MetaOp,
        preds: list[tuple[int, float]],
        byte_counts: tuple[float, float],
        free: list[Run],
        memory: _BlockMemory,
        last: dict[int, tuple[DeviceGroup, tuple[Run, ...]]],
        result: PlacementResult,
    ) -> tuple[DeviceGroup, tuple[Run, ...]]:
        """The chosen group and the runs of its device tuple."""
        n = entry.n_devices
        cluster = self.cluster
        # Placed neighbours and the volume each sends: the previous slice of
        # the same MetaOp first, then the predecessors in graph order.
        sources: list[tuple[tuple[DeviceGroup, tuple[Run, ...]], float]] = []
        prev = last.get(entry.metaop_index)
        if prev is not None:
            sources.append((prev, metaop.representative.activation_bytes))
        for pred, volume in preds:
            placed = last.get(pred)
            if placed is not None:
                sources.append((placed, volume))

        # Every candidate holds n distinct devices, so a source's transfer
        # takes one of three times, one per link class.  A remote candidate
        # is INTER_ISLAND to every source, so all of them share one value.
        links: list[tuple[tuple[Run, ...], int | None, float, float, float]] = []
        remote_comm = 0.0
        for (group, _), volume in sources:
            # In LinkClass order: the same devices, one island, any other.
            same_time, island_time, inter_time = link_transfer_times(cluster, group, n, volume)
            island = next(iter(group.islands)) if len(group.islands) == 1 else None
            links.append((group.runs, island, same_time, island_time, inter_time))
            remote_comm += inter_time

        param_bytes, act_bytes = byte_counts
        # _entry_device_bytes, from the memoized counts.
        per_device_bytes = (param_bytes + act_bytes) * entry.layers
        capacity = cluster.min_memory_bytes
        weight = self.memory_weight
        homogeneous = self._homogeneous
        # The lowest (score, position) among the candidates that fit, and the
        # lowest (peak, position) among all of them.
        best = lowest = None
        best_score = lowest_peak = 0.0
        near, remotes, spill = self._candidates(
            n, self._pool(entry.spec_class), free, [p for p, _ in sources]
        )

        def candidates() -> Iterator[_Candidate]:
            yield from near
            # With a non-negative memory weight a remote candidate scores at
            # least remote_comm, so none can take the lead from a fitting
            # candidate that scores no more.
            if best is None or best_score > remote_comm or weight < 0:
                yield from remotes
            if spill is not None:
                yield spill

        for candidate in candidates():
            if candidate.remote:
                comm = remote_comm
            else:
                comm = 0.0
                runs, island = candidate.runs, candidate.island
                for source_runs, source_island, same_time, island_time, inter_time in links:
                    if source_runs == runs:
                        comm += same_time
                    elif source_island is not None and source_island == island:
                        comm += island_time
                    else:
                        comm += inter_time
            spans = memory.spans(candidate.runs)
            # Float addition is monotonic, so this equals the largest
            # per-device projection.
            peak = memory.peak(spans) + per_device_bytes
            if homogeneous:
                fits = peak <= capacity
            else:
                fits = memory.fits(spans, per_device_bytes)
            if fits:
                score = comm + weight * (peak / capacity) * max(comm, 1e-6)
                if best is None or score < best_score:
                    best, best_score = candidate, score
            if lowest is None or peak < lowest_peak:
                lowest, lowest_peak = candidate, peak

        if lowest is None:
            raise PlacementError(
                f"No candidate device block of size {n} for MetaOp "
                f"{entry.metaop_index} in wave {wave.index}"
            )
        if best is None:
            self._record_oom(wave, entry, result)
            best = lowest
        if best.island is not None:
            islands = frozenset((best.island,))
        else:
            islands = cluster.islands_of_runs(best.runs)
        # Slices of the cluster's own id objects: a cached plan holds tens of
        # thousands of device ids at 4096 GPUs, and fresh ints would each
        # take a 28-byte object.
        ids = self._device_ids
        if len(best.order) == 1:
            start, end = best.order[0]
            devices = ids[start:end]
        else:
            devices = tuple(chain.from_iterable(ids[start:end] for start, end in best.order))
        return DeviceGroup(devices, best.runs, n, islands), best.order

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
