"""Outside-in layer tracing: shims around public entry points, self-time ledger.

The traced run wraps each layer's public entry points from here, never from
inside the program.  A wrapped call records one span ``(id, name, layer,
start, end, parent, op)``; spans stay in memory until the run ends.

Spans find their op three ways.  A call made while an op's span is open on
the same thread nests under it.  A fleet worker thread has no open span when
it picks a request up, so its top-level calls join the op whose client
thread last passed the same fingerprint (planner and cache calls) or trace
ID (journal emits); calls without either, such as the SLO and stats records
after a solve, belong to the op the worker last served.  Calls a client
thread makes between its ops are not recorded.

Each op's wall interval is then partitioned among its spans: at every
instant the deepest open span owns the time, the later-started one on a
tie (a worker span and the client span waiting for it).  A span's share is
its self time, and the op root's share, time no layer span covers, is the
benchmark's ``other.ms``.  On a properly nested span tree this equals the
span's duration minus the part its children cover.  Layer self times plus
``other.ms`` therefore add up to the op's latency by construction.

What the partition cannot place is span time outside the op's window: work
a worker does after the client has its reply, or a span joined to an op
that had already ended.  The ledger sums that clipped time and counts the
spans wholly outside their op, and the traced run prints both.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

#: Layers in report order.  ``queue`` has no entry point: its spans are the
#: gap between an op's submit returning and a worker starting its solve.
LAYERS = (
    "frontend",
    "cache",
    "obs",
    "fingerprint",
    "queue",
    "serialization",
    "planner",
    "graph_build",
    "contraction",
    "estimation",
    "allocation",
    "scheduling",
    "placement",
    "validate",
    "engine_build",
    "simulate",
    "replan",
    "plandiff",
    "migration",
    "view",
    "runner",
)

#: Which end-to-end metrics each layer should move, the workload where it
#: does the work, and where it should stay flat.
_SOLVE = ("ops_per_s latency_p50_ms", "plan-cold; elastic-replay replans", "serve-hot")
_SIMULATE = (
    "ops_per_s latency_p50_ms",
    "plan-cold; elastic-replay, which re-simulates cache hits",
    "serve-hot",
)
_ELASTIC = ("latency_p50_ms", "elastic-replay", "serve-hot plan-cold")
LAYER_EFFECTS = {
    "frontend": ("latency_p50_ms ops_per_s", "serve-hot", "plan-cold"),
    "cache": ("latency_p50_ms", "serve-hot", "plan-cold"),
    "obs": ("latency_p50_ms peak_rss_mb", "serve-hot", "plan-cold"),
    "fingerprint": (
        "latency_tail_ms ops_per_s",
        "serve-hot fresh share; elastic-replay replans and cache hits",
        "plan-cold",
    ),
    "queue": ("latency_tail_ms", "plan-cold, both clients on one shard", "serve-hot"),
    "serialization": ("latency_p50_ms", "plan-cold", "serve-hot"),
    "planner": _SOLVE,
    "graph_build": _SOLVE,
    "contraction": _SOLVE,
    "estimation": _SOLVE,
    "allocation": _SOLVE,
    "scheduling": _SOLVE,
    "placement": _SOLVE,
    "validate": _SOLVE,
    "engine_build": _SIMULATE,
    "simulate": _SIMULATE,
    "replan": _ELASTIC,
    "plandiff": _ELASTIC,
    "migration": _ELASTIC,
    "view": _ELASTIC,
    "runner": _ELASTIC,
}

ROOT_LAYER = "other"
QUEUE_LAYER = "queue"


class Span(NamedTuple):
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int


class SpanLog:
    """In-memory span store and the shims that feed it.

    Calls made outside any op (set-up, output checks) run unrecorded.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_of_key: dict[str, int] = {}
        self._counter_lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []
        self.recording = True

    # ------------------------------------------------------------- ops
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter_op(self, op: int) -> None:
        """Open ``op`` on this thread; its root span is recorded by exit_op."""
        self._local.client = True
        self._stack().append((next(self._ids), op))

    def exit_op(self, start: float, end: float) -> None:
        span_id, op = self._stack().pop()
        self.spans.append(Span(span_id, "op", ROOT_LAYER, start, end, None, op))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._counter_lock:
            self.counters[name] += amount

    # ----------------------------------------------------------- spans
    def call(
        self,
        name: str,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        key: Callable | None,
        note: Callable | None,
    ):
        if not self.recording:
            return fn(*args, **kwargs)
        local = self._local
        stack = self._stack()
        if stack:
            parent, op = stack[-1]
            if key is not None:
                joined = key(args, kwargs)
                if joined is not None:
                    self._op_of_key[joined] = op
        elif getattr(local, "client", False):
            return fn(*args, **kwargs)  # a client thread between its ops
        else:
            parent = None
            op = None
            if key is not None:
                joined = key(args, kwargs)
                if joined is not None:
                    op = self._op_of_key.get(joined)
            if op is None:
                op = getattr(local, "last_op", None)
            if op is None:
                return fn(*args, **kwargs)
            local.last_op = op
        span_id = next(self._ids)
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, layer, start, end, parent, op))
        if note is not None:
            note(self, args, result)
        return result

    def wrap(
        self,
        name: str,
        layer: str,
        fn: Callable,
        key: Callable | None = None,
        note: Callable | None = None,
    ) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, key, note)

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        key: Callable | None = None,
        note: Callable | None = None,
        name: str | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        Module and class attributes are restored by :meth:`restore`;
        instance attributes live as long as their object.
        """
        original = getattr(owner, attr)
        if isinstance(owner, (type, types.ModuleType)):
            self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.wrap(name or attr, layer, original, key, note))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------ key extractors
def _fingerprint_kwarg(args, kwargs):
    return kwargs.get("fingerprint")


def _first_arg(args, kwargs):
    return args[0] if args else None


def _trace_id(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("trace_id")


def _note_cache_get(log: SpanLog, args, result) -> None:
    log.count("cache.gets")
    if result is not None:
        log.count("cache.hits")


def _note_estimation(log: SpanLog, args, result) -> None:
    curves, reused = result
    log.count("estimation.curves", len(curves))
    log.count("estimation.reused", reused)


def _note_plandiff(log: SpanLog, args, result) -> None:
    log.count("plandiff.levels", args[1].num_levels)
    log.count("plandiff.reused", len(result.reusable_levels))


# ------------------------------------------------------------ instrumentation
def instrument_program(log: SpanLog) -> None:
    """Wrap the module- and class-level entry points (undone by restore)."""
    import repro.core.planner as planner_module
    import repro.service.cache as cache_module
    import repro.service.server as server_module
    import repro.unified.runtime as unified_module
    from repro.core.plan import ExecutionPlan
    from repro.elastic.migration import MigrationCostModel
    from repro.elastic.view import ElasticClusterView
    from repro.runtime.engine import RuntimeEngine
    from repro.service.incremental import IncrementalPlanner

    log.patch(planner_module, "build_unified_graph", "graph_build")
    log.patch(planner_module, "contract_graph", "contraction")
    log.patch(planner_module, "diff_metagraphs", "plandiff", note=_note_plandiff)
    log.patch(server_module, "fingerprint_workload", "fingerprint")
    log.patch(unified_module, "fingerprint_workload", "fingerprint")
    log.patch(cache_module, "plan_to_json", "serialization")
    log.patch(ExecutionPlan, "validate", "validate")
    log.patch(RuntimeEngine, "__init__", "engine_build", name="RuntimeEngine")
    log.patch(RuntimeEngine, "run_iteration", "simulate")
    log.patch(IncrementalPlanner, "plan", "replan", name="IncrementalPlanner.plan")
    log.patch(MigrationCostModel, "assess", "migration")
    log.patch(ElasticClusterView, "apply_all", "view")
    log.patch(ElasticClusterView, "snapshot", "view")


def instrument_planner(log: SpanLog, planner):
    """Wrap one planner's stage entry points; returns the planner."""
    log.patch(planner, "plan", "planner", key=_fingerprint_kwarg)
    log.patch(planner, "plan_incremental", "planner", key=_fingerprint_kwarg)
    log.patch(planner.estimator, "estimate_with_reuse", "estimation", note=_note_estimation)
    log.patch(planner.allocator, "allocate", "allocation")
    log.patch(planner.allocator, "allocate_level", "allocation")
    log.patch(planner.scheduler, "schedule", "scheduling")
    log.patch(planner.placer, "place", "placement")
    return planner


def instrument_cache(log: SpanLog, cache) -> None:
    log.patch(cache, "get", "cache", key=_first_arg, note=_note_cache_get)
    log.patch(cache, "put", "cache", key=_first_arg)
    log.patch(cache, "get_payload", "cache", key=_first_arg)


def instrument_fleet(log: SpanLog, fleet) -> None:
    """Wrap a fleet's front end, cache and telemetry sinks."""
    log.patch(fleet, "request", "frontend")
    log.patch(fleet, "submit", "frontend")
    for shard in fleet.shards:
        log.patch(shard, "submit", "frontend", key=_fingerprint_kwarg)
    instrument_cache(log, fleet.cache)
    log.patch(fleet.journal, "emit", "obs", key=_trace_id)
    log.patch(fleet.slo, "record", "obs", name="slo.record")
    log.patch(fleet.stats, "record", "obs", name="stats.record")


# --------------------------------------------------------------- attribution
def add_queue_span(spans: list[Span], span_id: int) -> Span | None:
    """The op's queue wait: submit returning until a worker starts solving.

    The solve is the ``plan`` span a worker opened with no parent; the
    submit is the shard's ``submit`` span on the client thread.  A worker
    that starts before the submit returns leaves a zero-length wait.
    """
    submit = next((s for s in spans if s.name == "submit" and s.parent is not None), None)
    solve = next((s for s in spans if s.name == "plan" and s.parent is None), None)
    if submit is None or solve is None:
        return None
    end = max(submit.end, solve.start)
    return Span(span_id, "queue", QUEUE_LAYER, submit.end, end, submit.parent, submit.op)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Partition the op root's interval among the op's spans (see module doc).

    ``spans`` holds exactly one root (``parent is None`` and layer
    ``other``); other spans without a parent are worker-thread spans and
    hang under the root's first child, the call into the program.
    """
    root = next(s for s in spans if s.layer == ROOT_LAYER)
    by_id = {s.span_id: s for s in spans}
    entry = min(
        (s for s in spans if s.parent == root.span_id),
        key=lambda s: s.start,
        default=root,
    )
    depth: dict[int, int] = {root.span_id: 0}

    def depth_of(span: Span) -> int:
        known = depth.get(span.span_id)
        if known is not None:
            return known
        parent = by_id.get(span.parent) if span.parent is not None else entry
        if parent is None or parent is span:
            parent = root
        value = depth_of(parent) + 1
        depth[span.span_id] = value
        return value

    events = []
    for span in spans:
        start, end = max(span.start, root.start), min(span.end, root.end)
        if end > start:
            rank = (-depth_of(span), -span.start, -span.span_id)
            events.append((start, 1, rank, span.span_id))
            events.append((end, 0, rank, span.span_id))
    events.sort()
    owned = {span.span_id: 0.0 for span in spans}
    open_spans: list[tuple] = []
    closed: set[int] = set()
    previous = None
    for instant, kind, rank, span_id in events:
        if previous is not None and instant > previous:
            while open_spans and open_spans[0][1] in closed:
                heapq.heappop(open_spans)
            if open_spans:
                owned[open_spans[0][1]] += instant - previous
        if kind:
            heapq.heappush(open_spans, (rank, span_id))
        else:
            closed.add(span_id)
        previous = instant
    return owned


@dataclass
class LayerLedger:
    """Per-op layer self times of one traced pass, summed over ops."""

    ops: int
    self_seconds: dict[str, float]
    calls: dict[str, int]
    queue_waits: list[float]
    #: Span time outside its op's window, which no layer was given.
    clipped_seconds: float
    #: Spans that lay wholly outside their op's window.
    spans_outside: int


def ledger(log: SpanLog, latencies: dict[int, float]) -> LayerLedger:
    """Self time and call counts per layer over the ops in ``latencies``."""
    self_seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    waits: list[float] = []
    clipped = 0.0
    outside = 0
    by_op: dict[int, list[Span]] = defaultdict(list)
    for span in log.spans:
        if span.op in latencies:
            by_op[span.op].append(span)
    next_id = max((s.span_id for s in log.spans), default=0) + 1
    for spans in by_op.values():
        queue = add_queue_span(spans, next_id)
        if queue is not None:
            next_id += 1
            spans.append(queue)
            waits.append(queue.end - queue.start)
        owned = self_times(spans)
        root = next(s for s in spans if s.layer == ROOT_LAYER)
        for span in spans:
            self_seconds[span.layer] += owned[span.span_id]
            if span.layer == ROOT_LAYER:
                continue
            calls[span.layer] += 1
            inside = min(span.end, root.end) - max(span.start, root.start)
            clipped += span.end - span.start - max(inside, 0.0)
            if span.end < root.start or span.start > root.end:
                outside += 1
    return LayerLedger(
        ops=len(latencies),
        self_seconds=dict(self_seconds),
        calls=dict(calls),
        queue_waits=waits,
        clipped_seconds=clipped,
        spans_outside=outside,
    )
