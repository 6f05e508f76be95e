"""Fingerprint-sharded serving fleet: routing, one shared cache, partitions.

:class:`PlanServiceFleet` scales the single :class:`~repro.service.server.
PlanService` into N shards addressed by **fingerprint-range routing**: the
canonical workload fingerprint's hex prefix is folded into a 64-bit key and
mapped to a shard with :func:`jump_consistent_hash` (Lamping & Veach's
jump consistent hash), so

* identical fingerprints always land on the same shard — single-flight
  coalescing therefore holds *across* router entry points for free (two
  clients submitting the same workload through different fleet handles
  still share one solve);
* resharding from N to M shards moves only the minimal ``|M - N| / max``
  fraction of the keyspace, and the moved keys re-route deterministically —
  a warm-started fleet re-serves byte-identical payloads after a shard-count
  change because entries reload into whichever shard now owns their range.

Every shard serves from one shared :class:`~repro.service.cache.PlanCache`
(one lock, one LRU order), so a plan solved on any shard is a hit on all of
them.  Lock-striping that cache was measured to buy no throughput under the
GIL, so the fleet does not.

Durability is partitioned: each shard owns one
:class:`~repro.service.store.PlanStore` snapshot file covering its
fingerprint range.  Warm starts preload every partition in parallel, and
:meth:`PlanServiceFleet.persist` writes each shard's currently-owned range
(so a fleet restarted with a different shard count repartitions the store on
its next persist).

Telemetry stays deterministic under sharding: each shard mints trace IDs
from its own :class:`~repro.obs.telemetry.TraceIdGenerator` namespaced by
the shard ordinal (``<fp8>-s<shard>-<seed>-<ordinal>``), so a request's ID
depends only on its shard and its position in that shard's submission order
— never on cross-shard interleaving.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Callable

from repro.core.plan import ExecutionPlan
from repro.core.planner import ExecutionPlanner, PlannerInput
from repro.graph.graph import ComputationGraph
from repro.obs.telemetry import TelemetryJournal, TraceIdGenerator
from repro.service.cache import PlanCache
from repro.service.resilience import PlanResponse, ResiliencePolicy
from repro.service.server import (
    FingerprintMemo,
    PlanService,
    ServiceError,
)
from repro.service.stats import ServiceStats
from repro.service.store import PlanStore

_JUMP_MULTIPLIER = 2862933555777941757
_MASK_64 = (1 << 64) - 1


class FleetError(ServiceError):
    """Raised for invalid fleet configuration or use after close."""


def jump_consistent_hash(key: int, num_buckets: int) -> int:
    """Map a 64-bit key onto ``[0, num_buckets)`` with minimal resharding.

    Lamping & Veach's jump consistent hash: growing from N to N+1 buckets
    moves exactly ~1/(N+1) of the keyspace and never moves a key between two
    pre-existing buckets, which is what keeps a persisted fleet's partitions
    stable (only the minimal range re-routes on a shard-count change).
    """
    if num_buckets <= 0:
        raise FleetError("num_buckets must be positive")
    key &= _MASK_64
    bucket, candidate = -1, 0
    while candidate < num_buckets:
        bucket = candidate
        key = (key * _JUMP_MULTIPLIER + 1) & _MASK_64
        candidate = int((bucket + 1) * ((1 << 31) / ((key >> 33) + 1)))
    return bucket


def shard_for_fingerprint(fingerprint: str, num_shards: int) -> int:
    """Shard ordinal owning ``fingerprint``'s range.

    The canonical fingerprint is a SHA-256 hex digest; its first 16 hex
    characters are a uniformly-distributed 64-bit key, folded through
    :func:`jump_consistent_hash`.  Non-hex prefixes (foreign fingerprint
    schemes) fall back to Python's string hash folded to 64 bits — stable
    within a process, which is the scope a fleet instance lives in.
    """
    if not fingerprint:
        return 0
    prefix = fingerprint[:16]
    try:
        key = int(prefix, 16)
    except ValueError:
        key = hash(prefix) & _MASK_64
    return jump_consistent_hash(key, num_shards)


class PlanServiceFleet:
    """N fingerprint-range-sharded :class:`PlanService` shards, one front end.

    The router fingerprints each request once (its
    :class:`~repro.service.server.FingerprintMemo`, the fleet's only one in
    use), routes it to the shard owning its range, and hands the
    precomputed fingerprint down — so a request is canonicalised exactly
    once no matter how many shards or entry points exist.  Identical
    fingerprints deterministically route to one shard, preserving
    single-flight coalescing across entry points.

    Parameters
    ----------
    planner_factory:
        Zero-argument factory building an :class:`ExecutionPlanner` (each
        shard's workers build their own instance, as in
        :class:`PlanService`).
    num_shards:
        Shard count; :func:`shard_for_fingerprint` with this bucket count
        is the routing function.
    cache:
        Pre-built shared cache; by default a :class:`PlanCache` of
        ``capacity`` entries.  The default 256 can hold about 170 MB of
        1024-GPU plans or 335 MB of 4096-GPU plans (see
        :class:`PlanCache` for the per-plan figures).
    num_workers / max_batch_size / resilience:
        Per-shard :class:`PlanService` configuration; with ``resilience``
        every shard keeps its own circuit breaker.
    store_dir:
        Directory of per-shard :class:`PlanStore` partitions
        (``shard-<ordinal>.json``).  Every partition is preloaded in
        parallel at construction — including partitions written under a
        *different* shard count, whose entries re-route to their current
        owners through the shared cache.
    journal / slo:
        Shared telemetry journal and SLO tracker.  Each shard additionally
        gets its own trace-ID namespace (``s<ordinal>``) and scope label
        (``<topology>/s<ordinal>``), so journals from same-seed serial
        replays are byte-identical and SLO rollups stay separable per shard.
    """

    def __init__(
        self,
        planner_factory: Callable[[], ExecutionPlanner],
        *,
        num_shards: int = 4,
        cache: PlanCache | None = None,
        capacity: int = 256,
        stats: ServiceStats | None = None,
        num_workers: int = 1,
        max_batch_size: int = 8,
        resilience: ResiliencePolicy | None = None,
        store_dir: "str | Path | None" = None,
        journal: TelemetryJournal | None = None,
        slo=None,
        trace_seed: int = 0,
    ) -> None:
        if num_shards <= 0:
            raise FleetError("num_shards must be positive")
        prototype = planner_factory()
        self.num_shards = num_shards
        self.cache = cache if cache is not None else PlanCache(capacity=capacity)
        self.stats = stats if stats is not None else ServiceStats()
        self.journal = journal
        self.slo = slo
        self.trace_seed = trace_seed
        self._fingerprints = FingerprintMemo(
            prototype.cluster, prototype.config_signature()
        )
        self._topology = prototype.cluster.signature()[:8]
        self._closed = False
        self._lock = threading.Lock()

        self.stores: list[PlanStore] = []
        self._store_dir: Path | None = None
        if store_dir is not None:
            self._store_dir = Path(store_dir)
            self.stores = [
                PlanStore(self._store_dir / f"shard-{ordinal:02d}.json")
                for ordinal in range(num_shards)
            ]
        self.warm_started = 0
        if self._store_dir is not None:
            self.warm_started = self._parallel_warm_start()

        self.shards: list[PlanService] = [
            PlanService(
                planner_factory,
                cache=self.cache,
                stats=self.stats,
                num_workers=num_workers,
                max_batch_size=max_batch_size,
                resilience=resilience,
                journal=journal,
                slo=slo,
                trace_ids=TraceIdGenerator(trace_seed, namespace=f"s{ordinal}"),
                label=f"{self._topology}/s{ordinal}",
            )
            for ordinal in range(num_shards)
        ]
        self._shard_requests = [0] * num_shards

    # ------------------------------------------------------------- routing
    def fingerprint(self, workload: PlannerInput) -> str:
        """Canonical fingerprint, memoized in the router only, and only for
        as long as the workload's objects live."""
        return self._fingerprints.fingerprint(workload)

    def shard_of(self, fingerprint: str) -> int:
        """Ordinal of the shard owning ``fingerprint``'s range."""
        return shard_for_fingerprint(fingerprint, self.num_shards)

    def shard_census(self) -> list[int]:
        """Requests routed to each shard since construction."""
        with self._lock:
            return list(self._shard_requests)

    # ------------------------------------------------------------ serving
    def submit(
        self, workload: PlannerInput, *, tenant: str | None = None
    ) -> Future:
        """Route one request to its shard; returns the shard's future."""
        if not isinstance(workload, ComputationGraph):
            workload = tuple(workload)
        fp = self.fingerprint(workload)
        shard = self._route(fp)
        return shard.submit(workload, tenant=tenant, fingerprint=fp)

    def plan(
        self,
        workload: PlannerInput,
        timeout: float | None = None,
        *,
        tenant: str | None = None,
    ) -> ExecutionPlan:
        if not isinstance(workload, ComputationGraph):
            workload = tuple(workload)
        fp = self.fingerprint(workload)
        return self._route(fp).plan(
            workload, timeout, tenant=tenant, fingerprint=fp
        )

    def request(
        self,
        workload: PlannerInput,
        timeout: float | None = None,
        *,
        tenant: str | None = None,
    ) -> PlanResponse:
        if not isinstance(workload, ComputationGraph):
            workload = tuple(workload)
        fp = self.fingerprint(workload)
        return self._route(fp).request(
            workload, timeout, tenant=tenant, fingerprint=fp
        )

    def serialized_plan(
        self, workload: PlannerInput, timeout: float | None = None
    ) -> str:
        """The serialized plan document, byte-identical across hits/shards."""
        fp = self.fingerprint(workload)
        payload = self.cache.get_payload(fp)
        if payload is not None:
            return payload
        self.plan(workload, timeout=timeout)
        payload = self.cache.get_payload(fp)
        if payload is None:  # pragma: no cover - evicted between plan and read
            from repro.core.serialization import plan_to_json

            payload = plan_to_json(self.plan(workload, timeout=timeout))
        return payload

    def pending_requests(self) -> int:
        return sum(shard.pending_requests() for shard in self.shards)

    # --------------------------------------------------------- durability
    def persist(self) -> int:
        """Write each shard's currently-owned fingerprint range to its
        partition; returns how many partitions were written.

        Ownership is recomputed at persist time, so a fleet warm-started
        from partitions written under a different shard count repartitions
        the store here.  I/O errors on one partition don't stop the rest.
        """
        if not self.stores:
            return 0
        owned: dict[int, list[str]] = {i: [] for i in range(self.num_shards)}
        for fingerprint in self.cache.fingerprints():
            owned[self.shard_of(fingerprint)].append(fingerprint)
        written = 0
        for ordinal, store in enumerate(self.stores):
            try:
                store.save(self.cache, fingerprints=owned[ordinal])
            except OSError:
                continue
            written += 1
        # Shrinking fleets leave higher-ordinal partitions behind; their
        # entries were just rewritten into the current owners, so drop them
        # rather than letting a future warm start resurrect stale payloads.
        if self._store_dir is not None and self._store_dir.is_dir():
            own = {store.path for store in self.stores}
            for path in self._store_dir.glob("shard-*.json"):
                if path not in own:
                    try:
                        path.unlink()
                    except OSError:
                        pass
        return written

    def close(self, wait: bool = True, cancel_pending: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.persist()
        for shard in self.shards:
            shard.close(wait=wait, cancel_pending=cancel_pending)

    def __enter__(self) -> "PlanServiceFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- internals
    def _route(self, fingerprint: str) -> PlanService:
        ordinal = self.shard_of(fingerprint)
        with self._lock:
            if self._closed:
                raise FleetError("PlanServiceFleet is closed")
            self._shard_requests[ordinal] += 1
        return self.shards[ordinal]

    def _parallel_warm_start(self) -> int:
        """Preload every on-disk partition concurrently into the shared cache.

        Loads every ``shard-*.json`` present in the store directory — not
        just the current fleet's own partitions — so a fleet restarted with
        *fewer* shards than the one that persisted still recovers the whole
        keyspace (the extra partitions' entries re-route to their new owners
        via the shared cache, and the next :meth:`persist` repartitions the
        directory).  Partitions cover disjoint fingerprint ranges, so the
        loads only contend on the shared cache's lock while inserting.
        Returns total entries loaded.
        """
        own = {store.path for store in self.stores}
        stores = list(self.stores)
        if self._store_dir is not None and self._store_dir.is_dir():
            stores.extend(
                PlanStore(path)
                for path in sorted(self._store_dir.glob("shard-*.json"))
                if path not in own
            )
        if not stores:
            return 0
        with ThreadPoolExecutor(
            max_workers=len(stores), thread_name_prefix="fleet-warm"
        ) as pool:
            results = list(
                pool.map(lambda store: store.load_into(self.cache), stores)
            )
        return sum(result.loaded for result in results)
