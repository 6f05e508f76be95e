"""Crash-safe persistent plan store: atomic snapshots, checksums, quarantine.

:class:`PlanStore` is the durable half of the plan cache.  It writes
versioned snapshots of a :class:`~repro.service.cache.PlanCache`'s payloads
and reloads them on restart (warm start), with three crash-safety
guarantees:

* **Atomic, crash-consistent snapshots** — every save writes to a temp file
  in the target directory, ``fsync``\\ s it, and ``os.replace``\\ s it over
  the snapshot, so a crash (or an injected persistence fault) mid-write —
  or a power loss right after the rename — leaves a complete snapshot on
  disk; readers never observe a torn file.
* **Per-entry checksums** — each payload is stored with its SHA-256; the
  format also carries a whole-snapshot entry count so truncation is
  detectable even when individual entries parse.
* **Quarantine, not failure** — a corrupt entry (checksum mismatch,
  non-string payload) is quarantined (recorded with its reason, counted as
  ``service.store{event=quarantined}``) while every intact entry still
  loads.  Quarantined entries never enter the cache, so the next save
  writes a snapshot without them.  Only an unreadable/unparseable snapshot,
  or one of any version but 2, raises :class:`StoreError`.

Format v2 (one JSON document)::

    {"format_version": 2,
     "entry_count": N,
     "entries": {fingerprint: {"payload": str, "checksum": sha256}}}

Fault injection: pass a :class:`~repro.faults.injection.FaultInjector` and
every save first consults :meth:`~repro.faults.injection.FaultInjector.on_persist`,
which may raise an injected I/O error *before the rename* — exercising the
crash-consistency path deterministically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import get_metrics
from repro.service.cache import PlanCache, payload_checksum

#: Version tag of the checksummed store snapshot format.
STORE_FORMAT_VERSION = 2


class StoreError(Exception):
    """Raised for unreadable or structurally invalid store snapshots."""


@dataclass
class StoreLoadResult:
    """Outcome of one :meth:`PlanStore.load_into` call."""

    loaded: int = 0
    #: fingerprint -> human-readable quarantine reason
    quarantined: dict[str, str] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.loaded + len(self.quarantined)


class PlanStore:
    """A checksummed, atomically-replaced snapshot file of plan payloads.

    Parameters
    ----------
    path:
        Snapshot file location; parent directories are created on save.
    injector:
        Optional fault injector consulted once per save
        (``persist_error`` faults abort the save before the atomic rename).
    """

    def __init__(self, path: str | Path, *, injector=None) -> None:
        self.path = Path(path)
        self.injector = injector
        #: Quarantine log of the most recent load (fingerprint -> reason).
        self.quarantined: dict[str, str] = {}

    # ------------------------------------------------------------------ save
    def save(
        self, cache: PlanCache, *, fingerprints: "list[str] | None" = None
    ) -> Path:
        """Atomically snapshot ``cache``'s payloads.

        With ``fingerprints``, only those entries are written — the
        partitioned-save path used by fleet shards, where each store owns
        one fingerprint range of a shared cache.

        The write goes to ``<path>.tmp``, is fsynced, and is renamed over
        the snapshot in one step; any failure before the rename — injected
        persistence faults included — leaves the previous snapshot
        untouched, and the fsync guarantees the renamed file's contents
        survive a crash immediately after.
        """
        selection = (
            cache.fingerprints() if fingerprints is None else fingerprints
        )
        entries: dict[str, dict[str, str]] = {}
        for fingerprint in selection:
            # Persisting is not serving: read without counting a hit or
            # moving the entry to the LRU end.
            payload = cache.peek_payload(fingerprint)
            if payload is None:
                continue  # evicted or quarantined between listing and read
            entries[fingerprint] = {
                "payload": payload,
                "checksum": payload_checksum(payload),
            }
        document = {
            "format_version": STORE_FORMAT_VERSION,
            "entry_count": len(entries),
            "entries": entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        if self.injector is not None:
            # The injected fault models a crash mid-write: the temp file may
            # exist (partially written) but the snapshot must stay intact.
            try:
                self.injector.on_persist()
            except Exception:
                tmp.write_text('{"torn": ', encoding="utf-8")
                raise
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(document))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        get_metrics().inc("service.store", event="saved")
        return self.path

    # ------------------------------------------------------------------ load
    def load_into(self, cache: PlanCache) -> StoreLoadResult:
        """Load the snapshot into ``cache``; quarantine corrupt entries.

        Intact entries land as payload-only cache entries (served by
        ``get_payload``; ``get`` still misses).  Returns how
        many loaded and what was quarantined; a missing snapshot file loads
        nothing.
        """
        result = StoreLoadResult()
        if not self.path.is_file():
            return result
        try:
            snapshot = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"Unreadable plan-store snapshot {self.path}: {exc}")
        version = snapshot.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise StoreError(
                f"Unsupported plan-store snapshot version {version!r} "
                f"in {self.path}"
            )
        entries = snapshot.get("entries")
        if not isinstance(entries, dict):
            raise StoreError(f"Snapshot {self.path} is missing its 'entries' mapping")
        declared = snapshot.get("entry_count")
        if isinstance(declared, int) and declared != len(entries):
            # Truncated-but-parseable snapshot: load what survived, flag it.
            result.quarantined["<snapshot>"] = (
                f"entry_count {declared} != {len(entries)} entries present"
            )
        metrics = get_metrics()
        for fingerprint, record in entries.items():
            reason = self._verify(record)
            if reason is not None:
                result.quarantined[fingerprint] = reason
                metrics.inc("service.store", event="quarantined")
                continue
            cache.put_payload(
                fingerprint, record["payload"], checksum=record["checksum"]
            )
            result.loaded += 1
        self.quarantined = dict(result.quarantined)
        metrics.inc("service.store", event="loaded")
        return result

    @staticmethod
    def _verify(record: object) -> str | None:
        """Reason the entry must be quarantined, or ``None`` if intact."""
        if not isinstance(record, dict):
            return "entry is not an object"
        payload = record.get("payload")
        checksum = record.get("checksum")
        if not isinstance(payload, str):
            return "payload is not a string"
        if not isinstance(checksum, str):
            return "checksum missing"
        if payload_checksum(payload) != checksum:
            return "checksum mismatch"
        try:
            json.loads(payload)
        except json.JSONDecodeError:
            return "payload is not valid JSON"
        return None
