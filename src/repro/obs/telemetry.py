"""Request-scoped telemetry: trace IDs and the structured event journal.

This module is the per-request half of the observability layer (the spans
and metrics in :mod:`repro.obs.tracer` / :mod:`repro.obs.metrics` are
aggregate-only).  It answers "what happened to request X?" with two pieces:

* :class:`TraceIdGenerator` — deterministic request IDs.  An ID is the
  request's fingerprint prefix plus a seeded monotonic counter
  (``<fp8>-<seed>-<ordinal>``), so a same-seed replay of a serial request
  stream mints byte-identical IDs.  The plan service mints one ID per
  submitted request and threads it through queueing, single-flight
  coalescing (coalesced requests record the *leader's* ID), retries,
  degradation-ladder tiers, worker crashes/requeues and fault injections,
  and attaches it to spans as a ``trace_id`` attribute (exported into
  Chrome trace ``args``).

* :class:`TelemetryJournal` — an append-only stream of canonical,
  schema-versioned events (:data:`EVENT_KINDS`), held in a bounded
  in-memory ring buffer with an optional JSONL file sink.  Events carry
  monotonic sequence offsets, never wall-clock — latency lives out-of-band
  in :class:`~repro.obs.slo.SloTracker` and ``ServiceStats`` — so a
  same-seed chaos campaign journals byte-identically
  (:meth:`TelemetryJournal.dumps`).  :func:`validate_event` gates every
  write; :func:`validate_journal` re-checks a whole stream (or file).

:func:`reconstruct_requests` folds a journal back into per-request
:class:`RequestLifecycle` records, and :func:`attribution_report`
summarizes how completely the stream accounts for its requests — the
invariant the resilience benchmark gates: every fault, retry and
degradation tier attributed to exactly one request lifecycle.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

#: Version tag carried by every journal event (``"v"``).
JOURNAL_SCHEMA_VERSION = 1

#: Event kinds, in lifecycle order.  ``request.submitted`` opens a request's
#: lifecycle and ``request.resolved`` closes it; everything in between is
#: attributed to the request by its trace ID.
EVENT_SUBMITTED = "request.submitted"
EVENT_CACHE_HIT = "request.cache_hit"
EVENT_COALESCED = "request.coalesced"
EVENT_SHED = "request.shed"
EVENT_ENQUEUED = "request.enqueued"
EVENT_ATTEMPT = "solve.attempt"
EVENT_RETRY = "solve.retry"
EVENT_FAULT = "fault.injected"
EVENT_REQUEUED = "worker.requeued"
EVENT_DEGRADED = "tier.degraded"
EVENT_QUARANTINED = "cache.quarantined"
EVENT_RESOLVED = "request.resolved"

EVENT_KINDS = (
    EVENT_SUBMITTED,
    EVENT_CACHE_HIT,
    EVENT_COALESCED,
    EVENT_SHED,
    EVENT_ENQUEUED,
    EVENT_ATTEMPT,
    EVENT_RETRY,
    EVENT_FAULT,
    EVENT_REQUEUED,
    EVENT_DEGRADED,
    EVENT_QUARANTINED,
    EVENT_RESOLVED,
)

#: The exact field set of a version-1 event.  Every event carries every
#: field (unused ones are ``null``), so the canonical JSONL rendering is a
#: fixed shape and schema drift is a validation error, not a silent skip.
EVENT_FIELDS = (
    "v",
    "seq",
    "kind",
    "trace_id",
    "tenant",
    "topology",
    "fingerprint",
    "tier",
    "attempt",
    "outcome",
    "fault",
    "leader",
    "detail",
)

_OPTIONAL_STR_FIELDS = (
    "trace_id",
    "tenant",
    "topology",
    "fingerprint",
    "tier",
    "outcome",
    "fault",
    "leader",
)

_EVENT_FIELD_SET = frozenset(EVENT_FIELDS)
_EVENT_KIND_SET = frozenset(EVENT_KINDS)


class JournalError(ValueError):
    """Raised for events or streams that violate the journal schema."""


def validate_event(event: Any, where: str = "event") -> None:
    """Check one event against the version-1 schema; raises on violation."""
    if not isinstance(event, Mapping):
        raise JournalError(f"{where}: must be an object, got {type(event).__name__}")
    extra = set(event) - _EVENT_FIELD_SET
    if extra:
        raise JournalError(f"{where}: unknown fields {sorted(extra)}")
    missing = _EVENT_FIELD_SET - set(event)
    if missing:
        raise JournalError(f"{where}: missing fields {sorted(missing)}")
    if event["v"] != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"{where}: unsupported schema version {event['v']!r} "
            f"(expected {JOURNAL_SCHEMA_VERSION})"
        )
    seq = event["seq"]
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise JournalError(f"{where}: 'seq' must be a non-negative integer")
    if event["kind"] not in _EVENT_KIND_SET:
        raise JournalError(f"{where}: unknown event kind {event['kind']!r}")
    for name in _OPTIONAL_STR_FIELDS:
        value = event[name]
        if value is not None and not isinstance(value, str):
            raise JournalError(f"{where}: {name!r} must be a string or null")
    attempt = event["attempt"]
    if attempt is not None and (
        not isinstance(attempt, int) or isinstance(attempt, bool) or attempt < 0
    ):
        raise JournalError(f"{where}: 'attempt' must be a non-negative integer or null")
    detail = event["detail"]
    if detail is not None and not isinstance(detail, Mapping):
        raise JournalError(f"{where}: 'detail' must be an object or null")


def validate_journal(events: "Iterable[Mapping] | str | Path") -> int:
    """Validate a whole event stream (or a JSONL file); returns the count.

    Beyond per-event schema checks, sequence offsets must be strictly
    increasing — the journal is append-only and ordered.
    """
    if isinstance(events, (str, Path)):
        events = _read_lines(Path(events))
    count = 0
    last_seq = -1
    for index, event in enumerate(events):
        validate_event(event, where=f"journal[{index}]")
        if event["seq"] <= last_seq:
            raise JournalError(
                f"journal[{index}]: 'seq' {event['seq']} is not increasing "
                f"(previous {last_seq})"
            )
        last_seq = event["seq"]
        count += 1
    return count


def _read_lines(path: Path) -> list[dict]:
    events: list[dict] = []
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise JournalError(f"{path}:{number}: invalid JSON: {exc}") from exc
    return events


def event_line(event: Mapping[str, Any]) -> str:
    """Canonical single-line JSON rendering (sorted keys, no spaces)."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


class TraceIdGenerator:
    """Mints deterministic request IDs: ``<fp prefix>-<seed>-<ordinal>``.

    The ordinal is a monotonic counter assigned under a lock in submission
    order, so a serial same-seed replay mints identical IDs.

    ``namespace`` scopes the ordinal stream: a fleet gives every shard its
    own generator namespaced by the shard ordinal
    (``<fp prefix>-<namespace>-<seed>-<ordinal>``), so per-shard counters
    stay deterministic under fingerprint-range routing — two shards minting
    concurrently never race on one counter, and a request's ID depends only
    on its shard and its position in that shard's submission order.
    """

    def __init__(self, seed: int = 0, namespace: str | None = None) -> None:
        self.seed = seed
        self.namespace = namespace
        self._lock = threading.Lock()
        self._next = 0

    def mint(self, fingerprint: str = "") -> str:
        with self._lock:
            ordinal = self._next
            self._next += 1
        prefix = fingerprint[:8] or "anon"
        if self.namespace is not None:
            return f"{prefix}-{self.namespace}-{self.seed}-{ordinal:06d}"
        return f"{prefix}-{self.seed}-{ordinal:06d}"


class TelemetryJournal:
    """Append-only structured event journal with schema-gated writes.

    Events live in a bounded in-memory ring buffer (``capacity`` most
    recent; the sequence counter keeps rising past drops) and, when ``sink``
    is given, are streamed to a JSONL file — one canonical line per event,
    so two journals of the same event stream are byte-identical.

    The journal owns no clock: events carry monotonic ``seq`` offsets only,
    and wall-clock latency stays out-of-band (``ServiceStats`` /
    :class:`~repro.obs.slo.SloTracker`), which is what makes same-seed
    chaos-campaign journals reproducible byte for byte.
    """

    def __init__(
        self,
        capacity: int = 65536,
        *,
        sink: "str | Path | None" = None,
    ) -> None:
        if capacity <= 0:
            raise JournalError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        # deque(maxlen=...) drops the oldest event in O(1); a list's
        # ``del events[0]`` would shift the whole buffer per drop.
        self._events: deque[dict] = deque(maxlen=capacity)
        self._next_seq = 0
        self._dropped = 0
        self._sink_path: Path | None = None
        self._sink = None
        if sink is not None:
            self._sink_path = Path(sink)
            self._sink_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = self._sink_path.open("w", encoding="utf-8")

    # ------------------------------------------------------------- recording
    def emit(
        self,
        kind: str,
        trace_id: str | None = None,
        *,
        tenant: str | None = None,
        topology: str | None = None,
        fingerprint: str | None = None,
        tier: str | None = None,
        attempt: int | None = None,
        outcome: str | None = None,
        fault: str | None = None,
        leader: str | None = None,
        detail: Mapping[str, Any] | None = None,
    ) -> dict:
        """Validate and append one event; returns the event record.

        The write gate is an inlined equivalent of :func:`validate_event`:
        ``emit`` constructs the version-1 shape itself, so only the
        caller-supplied values need checking (the full field-set scan runs
        on reads, in :meth:`read` / :func:`validate_journal`).  This keeps
        the per-event cost low enough for the service's cache-hit path.
        """
        if kind not in _EVENT_KIND_SET:
            raise JournalError(f"event: unknown event kind {kind!r}")
        for name, value in (
            ("trace_id", trace_id),
            ("tenant", tenant),
            ("topology", topology),
            ("fingerprint", fingerprint),
            ("tier", tier),
            ("outcome", outcome),
            ("fault", fault),
            ("leader", leader),
        ):
            if value is not None and not isinstance(value, str):
                raise JournalError(f"event: {name!r} must be a string or null")
        if attempt is not None and (
            not isinstance(attempt, int) or isinstance(attempt, bool) or attempt < 0
        ):
            raise JournalError(
                "event: 'attempt' must be a non-negative integer or null"
            )
        if detail is not None and not isinstance(detail, Mapping):
            raise JournalError("event: 'detail' must be an object or null")
        with self._lock:
            event = {
                "v": JOURNAL_SCHEMA_VERSION,
                "seq": self._next_seq,
                "kind": kind,
                "trace_id": trace_id,
                "tenant": tenant,
                "topology": topology,
                "fingerprint": fingerprint,
                "tier": tier,
                "attempt": attempt,
                "outcome": outcome,
                "fault": fault,
                "leader": leader,
                "detail": dict(detail) if detail is not None else None,
            }
            self._next_seq += 1
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(event)
            if self._sink is not None:
                self._sink.write(event_line(event) + "\n")
        return event

    # --------------------------------------------------------------- reading
    def events(self) -> list[dict]:
        """Snapshot of the buffered events, oldest first."""
        with self._lock:
            return [dict(event) for event in self._events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def total_events(self) -> int:
        """Events ever emitted, including ones the ring buffer dropped."""
        with self._lock:
            return self._next_seq

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def dumps(self) -> str:
        """The buffered events as canonical JSONL (byte-stable)."""
        with self._lock:
            lines = [event_line(event) for event in self._events]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: "str | Path") -> Path:
        """Write the buffered events as a JSONL file; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.dumps(), encoding="utf-8")
        return target

    @staticmethod
    def read(path: "str | Path") -> list[dict]:
        """Load and validate a JSONL journal file; returns its events."""
        events = _read_lines(Path(path))
        validate_journal(events)
        return events

    # ------------------------------------------------------------- lifecycle
    def flush(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                self._sink.close()
                self._sink = None

    def __enter__(self) -> "TelemetryJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class RequestLifecycle:
    """One request's journal events folded into a lifecycle record."""

    trace_id: str
    tenant: str | None = None
    topology: str | None = None
    fingerprint: str | None = None
    outcome: str | None = None
    tier: str | None = None
    attempts: int = 0
    retries: int = 0
    requeues: int = 0
    leader: str | None = None
    #: Fault kinds injected into this request, in injection order.
    faults: list[str] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    @property
    def submitted(self) -> bool:
        return any(e["kind"] == EVENT_SUBMITTED for e in self.events)

    @property
    def resolved(self) -> bool:
        return any(e["kind"] == EVENT_RESOLVED for e in self.events)

    @property
    def complete(self) -> bool:
        """Opened by ``request.submitted`` and closed by ``request.resolved``."""
        return self.submitted and self.resolved

    def kinds(self) -> list[str]:
        return [event["kind"] for event in self.events]


def reconstruct_requests(
    events: Iterable[Mapping[str, Any]],
) -> "dict[str, RequestLifecycle]":
    """Fold an event stream into per-request lifecycles, keyed by trace ID.

    Events without a trace ID (store-scoped persist faults, cache
    quarantines) are not request-scoped and are skipped here; see
    :func:`unattributed_events`.
    """
    lifecycles: dict[str, RequestLifecycle] = {}
    for event in events:
        trace_id = event.get("trace_id")
        if trace_id is None:
            continue
        lifecycle = lifecycles.get(trace_id)
        if lifecycle is None:
            lifecycle = RequestLifecycle(trace_id=trace_id)
            lifecycles[trace_id] = lifecycle
        lifecycle.events.append(dict(event))
        kind = event["kind"]
        for attr in ("tenant", "topology", "fingerprint"):
            if getattr(lifecycle, attr) is None and event.get(attr) is not None:
                setattr(lifecycle, attr, event[attr])
        if kind == EVENT_ATTEMPT:
            lifecycle.attempts += 1
        elif kind == EVENT_RETRY:
            lifecycle.retries += 1
        elif kind == EVENT_REQUEUED:
            lifecycle.requeues += 1
        elif kind == EVENT_FAULT and event.get("fault") is not None:
            lifecycle.faults.append(event["fault"])
        elif kind == EVENT_COALESCED:
            lifecycle.leader = event.get("leader")
        elif kind == EVENT_RESOLVED:
            lifecycle.outcome = event.get("outcome")
            lifecycle.tier = event.get("tier")
    return lifecycles


def unattributed_events(events: Iterable[Mapping[str, Any]]) -> list[dict]:
    """Events carrying no trace ID (store-scoped faults, quarantines)."""
    return [dict(e) for e in events if e.get("trace_id") is None]


def attribution_report(events: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """How completely a journal accounts for its requests.

    Returns a summary the resilience benchmark asserts on:

    * ``requests`` / ``complete`` — lifecycles seen, and how many are both
      submitted and resolved (100% for a healthy service run);
    * ``orphan_events`` — request-scoped events whose trace ID never
      produced a ``request.submitted`` (must be 0: every fault, retry and
      degradation tier belongs to exactly one lifecycle);
    * ``faults`` / ``retries`` / ``degraded_tiers`` — the per-request
      census, cross-checkable against the injector's counters and the
      ``service.retries`` / ``service.degraded{tier=}`` metrics;
    * ``unattributed`` — store-scoped events (persist faults, cache
      quarantines), counted by kind.
    """
    materialized = [dict(e) for e in events]
    lifecycles = reconstruct_requests(materialized)
    orphans = sum(
        1 for lifecycle in lifecycles.values() if not lifecycle.submitted
    )
    faults: dict[str, int] = {}
    degraded: dict[str, int] = {}
    retries = 0
    outcomes: dict[str, int] = {}
    for lifecycle in lifecycles.values():
        retries += lifecycle.retries
        for kind in lifecycle.faults:
            faults[kind] = faults.get(kind, 0) + 1
        if lifecycle.outcome is not None:
            outcomes[lifecycle.outcome] = outcomes.get(lifecycle.outcome, 0) + 1
        for event in lifecycle.events:
            if event["kind"] == EVENT_DEGRADED and event.get("tier"):
                degraded[event["tier"]] = degraded.get(event["tier"], 0) + 1
    unattributed: dict[str, int] = {}
    for event in unattributed_events(materialized):
        key = event.get("fault") or event["kind"]
        unattributed[key] = unattributed.get(key, 0) + 1
    complete = sum(1 for l in lifecycles.values() if l.complete)
    return {
        "events": len(materialized),
        "requests": len(lifecycles),
        "complete": complete,
        "orphan_events": sum(
            len(l.events) for l in lifecycles.values() if not l.submitted
        ),
        "orphan_requests": orphans,
        "outcomes": dict(sorted(outcomes.items())),
        "faults": dict(sorted(faults.items())),
        "retries": retries,
        "degraded_tiers": dict(sorted(degraded.items())),
        "unattributed": dict(sorted(unattributed.items())),
    }


#: Shared no-op sentinel: journal-less components skip emission entirely.
NULL_JOURNAL = None
