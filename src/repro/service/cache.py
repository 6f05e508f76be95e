"""Thread-safe fingerprint-keyed plan cache with LRU eviction and TTL expiry.

The cache stores, per fingerprint, the live :class:`ExecutionPlan` object and
— rendered lazily, on first payload access, via
:mod:`repro.core.serialization` — its serialized JSON document.  Serving the
stored string rather than re-serializing per request guarantees that every
payload hit returns a byte-identical document, which lets downstream consumers
(request routers, content-addressed stores) deduplicate responses by raw
bytes; deferring the render means cache users that only ever consume live
plans (e.g. the dynamic-workload runner) never pay for serialization.

Entries expire ``ttl_seconds`` after insertion (``None`` disables expiry) and
the least-recently-used entry is evicted once ``capacity`` is exceeded.
Expired entries are not discarded outright: they move to a bounded stale side
list, retrievable via :meth:`get_stale`, which is the "serve stale, flagged"
tier of the service's degradation ladder — when planning itself is failing, a
recently-expired plan beats no plan.  :class:`~repro.service.store.PlanStore`
persists the payloads and restores them through :meth:`put_payload`; restored
entries carry the payload only (the live plan objects are not reconstructed),
which is what a serving tier restarted from a snapshot needs — :meth:`get`
treats such entries as misses while :meth:`get_payload` serves them.

Rendered payloads carry a SHA-256 checksum computed at render time;
:meth:`get_payload` re-verifies it on every serve and quarantines (drops and
counts) entries whose bytes no longer match — corrupted payloads are treated
as misses, never served.  With a telemetry ``journal`` attached each
quarantine is additionally journaled as a ``cache.quarantined`` event
carrying the entry's fingerprint (cache-scoped, so no trace ID — the
corruption is attributed to the *entry*, while the injection that caused it
is attributed to its request by the fault injector).

Fingerprints are canonical (see :mod:`repro.service.fingerprint`): requests
that differ only in task naming or ordering share one entry, so the served
plan embeds the task/operator names of whichever structurally-equal request
was planned first.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    expirations: int = 0
    #: Payloads whose checksum no longer matched at serve time (quarantined).
    corruptions: int = 0
    #: Expired or snapshot-only entries served through :meth:`get_stale`.
    stale_hits: int = 0

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
            "expirations": self.expirations,
            "corruptions": self.corruptions,
            "stale_hits": self.stale_hits,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _CacheEntry:
    plan: Optional[ExecutionPlan]
    inserted_at: float
    payload: Optional[str] = None
    checksum: Optional[str] = None
    hits: int = field(default=0)

    def render(self) -> str:
        """Render (and checksum) the payload on first access."""
        if self.payload is None:
            self.payload = plan_to_json(self.plan)
            self.checksum = payload_checksum(self.payload)
        return self.payload

    def payload_intact(self) -> bool:
        """Whether the stored payload still matches its checksum.

        Entries without a checksum (legacy v1 snapshots) are trusted —
        there is nothing to verify against.
        """
        if self.payload is None or self.checksum is None:
            return True
        return payload_checksum(self.payload) == self.checksum


class PlanCache:
    """LRU + TTL cache mapping workload fingerprints to execution plans.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is evicted
        when a put would exceed it.
    ttl_seconds:
        Entries older than this are treated as absent (and dropped on access).
        ``None`` means entries never expire.
    clock:
        Monotonic time source, injectable for deterministic TTL tests.
    journal:
        Optional :class:`~repro.obs.telemetry.TelemetryJournal` receiving a
        ``cache.quarantined`` event per checksum-mismatch quarantine; a
        :class:`~repro.service.server.PlanService` attaches its own journal
        here when the cache has none.
    """

    def __init__(
        self,
        capacity: int = 64,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        journal=None,
    ) -> None:
        if capacity <= 0:
            raise CacheError("Cache capacity must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise CacheError("ttl_seconds must be positive (or None to disable)")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self.journal = journal
        self._entries: OrderedDict[str, _CacheEntry] = OrderedDict()
        # Expired entries, retained (bounded by capacity) for the service's
        # stale-serving degradation tier; never returned by get()/get_payload().
        self._stale: OrderedDict[str, _CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ----------------------------------------------------------------- access
    def get(self, fingerprint: str) -> Optional[ExecutionPlan]:
        """Return the cached live plan, or ``None`` on miss/expiry.

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
        # Render outside the lock; concurrent renders of the same plan
        # produce identical strings, so last-writer-wins is benign.
        payload = entry.render()
        if not entry.payload_intact():
            self._quarantine(fingerprint)
            return None
        return payload

    def get_stale(self, fingerprint: str) -> "Optional[tuple[ExecutionPlan | None, str | None]]":
        """Serve an expired or snapshot-only entry (degraded tier).

        Returns ``(plan, payload)`` — either may be ``None`` (snapshot
        entries carry no live plan; never-rendered expired entries carry no
        payload).  Corrupted payloads are quarantined here too.  Fresh
        entries are *not* served through this path; use :meth:`get`.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                if self._expired(entry):
                    del self._entries[fingerprint]
                    self._remember_stale(fingerprint, entry)
                    self.stats.expirations += 1
                elif entry.plan is None:
                    # Snapshot-loaded payload-only entry: stale-servable.
                    pass
                else:
                    return None  # fresh and live: not a stale serve
            entry = self._stale.get(fingerprint) or (
                entry if entry is not None and entry.plan is None else None
            )
            if entry is None:
                return None
        if entry.payload is not None and not entry.payload_intact():
            with self._lock:
                self._stale.pop(fingerprint, None)
                self._entries.pop(fingerprint, None)
                self.stats.corruptions += 1
            self._journal_quarantine(fingerprint)
            return None
        with self._lock:
            self.stats.stale_hits += 1
        return entry.plan, entry.payload

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
            inserted_at=self._clock(),
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
        checksum: str | None = None,
    ) -> None:
        """Insert a payload-only entry (snapshot restore / warm start).

        Such entries serve ``get_payload``/``get_stale`` but miss on
        :meth:`get` — the live plan was not reconstructed.  ``checksum``
        enables integrity verification on every serve; ``None`` (legacy v1
        snapshots) stores the payload unverified.
        """
        entry = _CacheEntry(
            payload=payload,
            checksum=checksum,
            plan=None,
            inserted_at=self._clock(),
        )
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
            self._stale.clear()

    def purge_expired(self) -> int:
        """Move all expired entries to the stale list; returns how many."""
        if self.ttl_seconds is None:
            return 0
        now = self._clock()
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if now - entry.inserted_at > self.ttl_seconds
            ]
            for key in stale:
                self._remember_stale(key, self._entries.pop(key))
                self.stats.expirations += 1
        return len(stale)

    def corrupt(self, fingerprint: str) -> bool:
        """Flip bytes in the stored payload (fault injection / tests only).

        Renders the payload first so there is something to corrupt; the
        checksum is *not* updated, which is the point — the next
        :meth:`get_payload` or store save must detect the mismatch.  Returns
        whether an entry was corrupted.
        """
        with self._lock:
            entry = self._entries.get(fingerprint) or self._stale.get(fingerprint)
        if entry is None:
            return False
        if entry.payload is None:
            entry.render()
        entry.payload = entry.payload[:-8] + "CORRUPT}"
        return True

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return False
            return not self._expired(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def fingerprints(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    # -------------------------------------------------------------- internals
    def _expired(self, entry: _CacheEntry) -> bool:
        return (
            self.ttl_seconds is not None
            and self._clock() - entry.inserted_at > self.ttl_seconds
        )

    def _remember_stale(self, fingerprint: str, entry: _CacheEntry) -> None:
        """Retain an expired entry for stale serving (bounded, LRU)."""
        self._stale[fingerprint] = entry
        self._stale.move_to_end(fingerprint)
        while len(self._stale) > self.capacity:
            self._stale.popitem(last=False)

    def _quarantine(self, fingerprint: str) -> None:
        """Drop a corrupted entry everywhere and count the detection.

        The triggering access was already counted as a hit by ``_lookup``;
        re-classify it as a miss so ``requests`` still counts it once.
        """
        with self._lock:
            self._entries.pop(fingerprint, None)
            self._stale.pop(fingerprint, None)
            self.stats.corruptions += 1
            self.stats.hits -= 1
            self.stats.misses += 1
        self._journal_quarantine(fingerprint)

    def _journal_quarantine(self, fingerprint: str) -> None:
        if self.journal is not None:
            self.journal.emit("cache.quarantined", None, fingerprint=fingerprint)

    def stale_fingerprints(self) -> list[str]:
        with self._lock:
            return list(self._stale)

    def _lookup(
        self, fingerprint: str, need_plan: bool = False
    ) -> Optional[_CacheEntry]:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.stats.misses += 1
                return None
            if self._expired(entry):
                self._remember_stale(fingerprint, self._entries.pop(fingerprint))
                self.stats.expirations += 1
                self.stats.misses += 1
                return None
            if need_plan and entry.plan is None:
                # Snapshot-loaded entry: the payload is servable but the
                # caller needs a live plan, which it will have to compute.
                self.stats.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            entry.hits += 1
            self.stats.hits += 1
            return entry
