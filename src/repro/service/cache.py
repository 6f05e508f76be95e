"""Thread-safe fingerprint-keyed plan cache with LRU eviction.

The cache stores, per fingerprint, the live :class:`ExecutionPlan` object and
— rendered lazily, on first payload access, via
:mod:`repro.core.serialization` — its serialized JSON document.  Serving the
stored string rather than re-serializing per request guarantees that every
payload hit returns a byte-identical document, which lets downstream consumers
(request routers, content-addressed stores) deduplicate responses by raw
bytes; deferring the render means cache users that only ever consume live
plans (e.g. the dynamic-workload runner) never pay for serialization.

Planning is a pure function of its inputs, so entries never expire: the
least-recently-used entry is evicted once ``capacity`` is exceeded.
:class:`~repro.service.store.PlanStore` persists the payloads and restores
them through :meth:`put_payload`; restored entries carry the payload only
(the live plan objects are not reconstructed), which is what a serving tier
restarted from a snapshot needs — :meth:`get` treats such entries as misses
while :meth:`get_payload` serves them.

Rendered payloads carry a SHA-256 checksum computed at render time;
:meth:`get_payload` re-verifies it on every serve, and :meth:`peek_payload`
on every persist, and both quarantine (drop and count) entries whose bytes
no longer match — corrupted payloads are treated as misses, never served.
With a telemetry ``journal`` attached each quarantine is additionally
journaled as a ``cache.quarantined`` event carrying the entry's fingerprint
(cache-scoped, so no trace ID — the corruption is attributed to the
*entry*, while the injection that caused it is attributed to its request by
the fault injector).

Fingerprints are canonical (see :mod:`repro.service.fingerprint`): requests
that differ only in task naming or ordering share one entry, so the served
plan embeds the task/operator names of whichever structurally-equal request
was planned first.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.plan import ExecutionPlan
from repro.core.serialization import plan_to_json


def payload_checksum(payload: str) -> str:
    """SHA-256 hex digest of a serialized plan payload."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CacheError(Exception):
    """Raised for invalid cache configuration or malformed snapshots."""


@dataclass
class CacheStats:
    """Counters describing the cache's behaviour since construction."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    #: Payloads whose checksum no longer matched at serve time (quarantined).
    corruptions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corruptions": self.corruptions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _CacheEntry:
    plan: Optional[ExecutionPlan]
    payload: Optional[str] = None
    checksum: Optional[str] = None

    def render(self) -> str:
        """Render (and checksum) the payload on first access."""
        if self.payload is None:
            # Checksum first: a concurrent reader that sees the payload must
            # also see the checksum it is verified against.
            payload = plan_to_json(self.plan)
            self.checksum = payload_checksum(payload)
            self.payload = payload
        return self.payload

    def payload_intact(self) -> bool:
        """Whether the stored payload still matches its checksum."""
        return payload_checksum(self.payload) == self.checksum


class PlanCache:
    """LRU cache mapping workload fingerprints to execution plans.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is evicted
        when a put would exceed it.  The bound is in entries, not bytes.
        Under ``tracemalloc``, a cached plan with its rendered payload and
        the operators of the request that solved it (the plan's metagraph
        references them) retained about 0.67 MB on 1024 GPUs and 1.3 MB on
        4096 GPUs, the payload 0.25 and 0.71 MB of that, so the default 64
        entries can hold about 85 MB of 4096-GPU plans.
    journal:
        Optional :class:`~repro.obs.telemetry.TelemetryJournal` receiving a
        ``cache.quarantined`` event per checksum-mismatch quarantine; a
        :class:`~repro.service.server.PlanService` attaches its own journal
        here when the cache has none.
    """

    def __init__(
        self,
        capacity: int = 64,
        journal=None,
    ) -> None:
        if capacity <= 0:
            raise CacheError("Cache capacity must be positive")
        self.capacity = capacity
        self.journal = journal
        self._entries: OrderedDict[str, _CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ----------------------------------------------------------------- access
    def get(self, fingerprint: str) -> Optional[ExecutionPlan]:
        """Return the cached live plan, or ``None`` on a miss.

        Payload-only entries (loaded from a snapshot) count as misses here:
        the caller will have to plan anyway, and the hit rate should say so.
        """
        entry = self._lookup(fingerprint, need_plan=True)
        return entry.plan if entry is not None else None

    def get_payload(self, fingerprint: str) -> Optional[str]:
        """Return the serialized plan document (byte-identical across hits).

        The document is rendered on first access and stored with its
        checksum, so every subsequent hit serves the exact same verified
        bytes.  A checksum mismatch quarantines the entry (dropped, counted
        in ``stats.corruptions``) and reports a miss — corrupt bytes are
        never served.
        """
        entry = self._lookup(fingerprint)
        if entry is None:
            return None
        return self._verified(fingerprint, entry, counted=True)

    def peek_payload(self, fingerprint: str) -> Optional[str]:
        """:meth:`get_payload` for persisting: the same verified bytes and
        the same quarantine of a mismatch, but no hit, miss or recency
        change, so a snapshot leaves the counters and the eviction order as
        the requests left them."""
        with self._lock:
            entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        return self._verified(fingerprint, entry, counted=False)

    def put(
        self,
        fingerprint: str,
        plan: ExecutionPlan,
        payload: str | None = None,
    ) -> None:
        """Insert a plan; its payload is rendered lazily unless supplied."""
        entry = _CacheEntry(
            payload=payload,
            checksum=payload_checksum(payload) if payload is not None else None,
            plan=plan,
        )
        with self._lock:
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            self.stats.puts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def put_payload(
        self,
        fingerprint: str,
        payload: str,
        checksum: str,
    ) -> None:
        """Insert a payload-only entry (snapshot restore / warm start).

        Such entries serve :meth:`get_payload` but miss on :meth:`get` —
        the live plan was not reconstructed.  ``checksum`` is verified on
        every serve.
        """
        entry = _CacheEntry(payload=payload, checksum=checksum, plan=None)
        with self._lock:
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            self.stats.puts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            return self._entries.pop(fingerprint, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def corrupt(self, fingerprint: str) -> bool:
        """Flip bytes in the stored payload (fault injection / tests only).

        Renders the payload first so there is something to corrupt; the
        checksum is *not* updated, which is the point — the next
        :meth:`get_payload` or store save must detect the mismatch.  Returns
        whether an entry was corrupted.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
        if entry is None:
            return False
        if entry.payload is None:
            entry.render()
        entry.payload = entry.payload[:-8] + "CORRUPT}"
        return True

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def fingerprints(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    # -------------------------------------------------------------- internals
    def _verified(self, fingerprint: str, entry: _CacheEntry, counted: bool) -> Optional[str]:
        """The entry's payload, or ``None`` after quarantining a mismatch."""
        # Render outside the lock; concurrent renders of the same plan
        # produce identical strings, so last-writer-wins is benign.
        payload = entry.render()
        if not entry.payload_intact():
            self._quarantine(fingerprint, counted)
            return None
        return payload

    def _quarantine(self, fingerprint: str, counted: bool) -> None:
        """Drop a corrupted entry and count the detection.

        A ``counted`` access was already counted as a hit by ``_lookup``;
        re-classify it as a miss so ``requests`` still counts it once.
        """
        with self._lock:
            self._entries.pop(fingerprint, None)
            self.stats.corruptions += 1
            if counted:
                self.stats.hits -= 1
                self.stats.misses += 1
        if self.journal is not None:
            self.journal.emit("cache.quarantined", None, fingerprint=fingerprint)

    def _lookup(
        self, fingerprint: str, need_plan: bool = False
    ) -> Optional[_CacheEntry]:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.stats.misses += 1
                return None
            if need_plan and entry.plan is None:
                # Snapshot-loaded entry: the payload is servable but the
                # caller needs a live plan, which it will have to compute.
                self.stats.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.stats.hits += 1
            return entry
