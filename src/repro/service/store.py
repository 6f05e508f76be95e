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
  loads.  Only an unreadable/unparseable snapshot raises
  :class:`StoreError`.

Format v2 (one JSON document)::

    {"format_version": 2,
     "entry_count": N,
     "entries": {fingerprint: {"payload": str, "checksum": sha256}}}

Legacy v1 snapshots, written by the plan cache before this store existed,
map fingerprints straight to payloads without checksums::

    {"format_version": 1, "entries": {fingerprint: payload}}

They load with verification skipped; :meth:`PlanStore.compact` rewrites them
as v2.

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

#: Version tag of the legacy, unchecksummed snapshot format (read only).
CACHE_SNAPSHOT_VERSION = 1
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
    auto_compact_threshold:
        When a load quarantines at least this many entries, the snapshot is
        automatically compacted (rewritten without the dead entries) right
        after the load.  ``None`` (default) disables auto-compaction.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        injector=None,
        auto_compact_threshold: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.injector = injector
        self.auto_compact_threshold = auto_compact_threshold
        #: Quarantine log of the most recent load (fingerprint -> reason).
        self.quarantined: dict[str, str] = {}

    # ------------------------------------------------------------------ save
    def save(
        self, cache: PlanCache, *, fingerprints: "list[str] | None" = None
    ) -> Path:
        """Atomically snapshot ``cache``'s payloads (fresh entries only).

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
            payload = cache.get_payload(fingerprint)
            if payload is None:
                continue  # expired or quarantined between listing and read
            entries[fingerprint] = {
                "payload": payload,
                "checksum": payload_checksum(payload),
            }
        document = {
            "format_version": STORE_FORMAT_VERSION,
            "entry_count": len(entries),
            "entries": entries,
        }
        if self.injector is not None:
            # The injected fault models a crash mid-write: the temp file may
            # exist (partially written) but the snapshot must stay intact.
            try:
                self.injector.on_persist()
            except Exception:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                tmp = self.path.with_name(self.path.name + ".tmp")
                tmp.write_text('{"torn": ', encoding="utf-8")
                raise
        self._write_snapshot(document)
        get_metrics().inc("service.store", event="saved")
        return self.path

    def _write_snapshot(self, document: dict) -> None:
        """Durably write ``document`` as the snapshot: tmp + fsync + rename."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(document))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    # --------------------------------------------------------------- compact
    def compact(self) -> int:
        """Rewrite the snapshot keeping only intact entries.

        Dead weight — entries that fail checksum/structure verification, a
        stale ``entry_count``, or legacy v1 framing — is dropped and the
        survivors are rewritten as a fresh v2 snapshot (legacy payloads gain
        checksums).  Returns how many entries were dropped.  A missing
        snapshot is a no-op.
        """
        if not self.path.is_file():
            return 0
        try:
            snapshot = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"Unreadable plan-store snapshot {self.path}: {exc}")
        raw = snapshot.get("entries")
        if not isinstance(raw, dict):
            raise StoreError(f"Snapshot {self.path} is missing its 'entries' mapping")
        legacy = snapshot.get("format_version") == CACHE_SNAPSHOT_VERSION
        entries: dict[str, dict[str, str]] = {}
        dropped = 0
        for fingerprint, record in raw.items():
            if legacy:
                record = (
                    {"payload": record, "checksum": payload_checksum(record)}
                    if isinstance(record, str)
                    else record
                )
            if self._verify(record) is not None:
                dropped += 1
                continue
            entries[fingerprint] = {
                "payload": record["payload"],
                "checksum": record["checksum"],
            }
        self._write_snapshot(
            {
                "format_version": STORE_FORMAT_VERSION,
                "entry_count": len(entries),
                "entries": entries,
            }
        )
        get_metrics().inc("service.store", event="compacted")
        return dropped

    # ------------------------------------------------------------------ load
    def load_into(self, cache: PlanCache) -> StoreLoadResult:
        """Load the snapshot into ``cache``; quarantine corrupt entries.

        Intact entries land as payload-only cache entries (served by
        ``get_payload``/``get_stale``; ``get`` still misses).  Returns how
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
        if version == CACHE_SNAPSHOT_VERSION:
            return self._load_v1(snapshot, cache, result)
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
        self._maybe_auto_compact(result)
        return result

    def _maybe_auto_compact(self, result: StoreLoadResult) -> None:
        threshold = self.auto_compact_threshold
        if threshold is not None and len(result.quarantined) >= threshold:
            self.compact()

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

    def _load_v1(
        self, snapshot: dict, cache: PlanCache, result: StoreLoadResult
    ) -> StoreLoadResult:
        """Legacy v1 snapshots: no checksums to verify."""
        entries = snapshot.get("entries")
        if not isinstance(entries, dict):
            raise StoreError(f"Snapshot {self.path} is missing its 'entries' mapping")
        for fingerprint, payload in entries.items():
            if not isinstance(payload, str):
                result.quarantined[fingerprint] = "payload is not a string"
                continue
            cache.put_payload(fingerprint, payload, checksum=None)
            result.loaded += 1
        self.quarantined = dict(result.quarantined)
        self._maybe_auto_compact(result)
        return result
