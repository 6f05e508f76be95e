"""Planning service: fingerprint-keyed caching and concurrent plan serving.

Planning is a pure function of (task set, cluster, planner configuration), so
identical and overlapping requests can be memoized and served concurrently
instead of recomputed serially.  The serving front end is
:class:`~repro.service.fleet.PlanServiceFleet`: :class:`PlanService` shards
over one :class:`PlanCache`, persisted through :class:`PlanStore`
partitions.

* :mod:`repro.service.fingerprint` — canonical, order/naming-insensitive
  content hashes of planning requests,
* :mod:`repro.service.cache` — a thread-safe LRU plan cache serving
  byte-identical serialized plans, with payload checksums,
* :mod:`repro.service.server` — one plan-service shard: a bounded worker
  pool draining its queue in batches, single-flight deduplication and
  (opt-in) retries, deadlines, circuit breaking, load shedding and graceful
  degradation,
* :mod:`repro.service.fleet` — the fingerprint-range-sharded fleet of plan
  services behind one routing front end, with one shared cache and
  per-shard store partitions,
* :mod:`repro.service.resilience` — the resilience policy, circuit breaker
  and per-request :class:`~repro.service.resilience.PlanResponse` record,
* :mod:`repro.service.store` — the crash-safe persistent plan store (atomic
  snapshots, per-entry checksums, quarantine) for warm starts; the cache's
  only persistence path,
* :mod:`repro.service.incremental` — incremental re-planning that pools
  per-MetaOp scalability curves across overlapping requests (the unified
  runner's planner; a service plans with an ``ExecutionPlanner``),
* :mod:`repro.service.stats` — service-level throughput/latency/hit-rate
  accounting.
"""

from repro.service.cache import CacheError, CacheStats, PlanCache, payload_checksum
from repro.service.fingerprint import (
    canonical_cluster,
    canonical_graph,
    canonical_task,
    canonical_tasks,
    fingerprint_workload,
    hash_document,
)
from repro.service.fleet import (
    FleetError,
    PlanServiceFleet,
    jump_consistent_hash,
    shard_for_fingerprint,
)
from repro.service.incremental import (
    IncrementalPlanner,
    IncrementalStats,
    StaleTopologyError,
)
from repro.service.resilience import (
    DEGRADED_TIERS,
    RESPONSE_DEGRADED,
    RESPONSE_ERROR,
    RESPONSE_SERVED,
    RESPONSE_SHED,
    TIER_CACHE,
    TIER_FRESH,
    TIER_REFERENCE,
    CircuitBreaker,
    PlanResponse,
    ResiliencePolicy,
)
from repro.service.server import (
    FingerprintMemo,
    PlanService,
    ServiceError,
    ServiceOverloadError,
)
from repro.service.stats import (
    OUTCOME_COALESCED,
    OUTCOME_DEGRADED,
    OUTCOME_HIT,
    OUTCOME_MISS,
    OUTCOME_SHED,
    ServiceStats,
)
from repro.service.store import (
    STORE_FORMAT_VERSION,
    PlanStore,
    StoreError,
    StoreLoadResult,
)

__all__ = [
    "CacheError",
    "CacheStats",
    "CircuitBreaker",
    "DEGRADED_TIERS",
    "FingerprintMemo",
    "FleetError",
    "IncrementalPlanner",
    "IncrementalStats",
    "OUTCOME_COALESCED",
    "OUTCOME_DEGRADED",
    "OUTCOME_HIT",
    "OUTCOME_MISS",
    "OUTCOME_SHED",
    "PlanCache",
    "PlanResponse",
    "PlanService",
    "PlanServiceFleet",
    "PlanStore",
    "RESPONSE_DEGRADED",
    "RESPONSE_ERROR",
    "RESPONSE_SERVED",
    "RESPONSE_SHED",
    "STORE_FORMAT_VERSION",
    "ResiliencePolicy",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceStats",
    "StaleTopologyError",
    "StoreError",
    "StoreLoadResult",
    "TIER_CACHE",
    "TIER_FRESH",
    "TIER_REFERENCE",
    "canonical_cluster",
    "canonical_graph",
    "canonical_task",
    "canonical_tasks",
    "fingerprint_workload",
    "hash_document",
    "jump_consistent_hash",
    "payload_checksum",
    "shard_for_fingerprint",
]
