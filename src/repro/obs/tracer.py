"""Structured span tracing: nested, thread-local, near-free when disabled.

The tracer is the wall-clock half of the observability layer (the metrics
registry in :mod:`repro.obs.metrics` is the aggregate half).  Components wrap
their phases in context-manager *spans*:

    with tracer.span("planner.graph_contraction", category="planner"):
        ...

Spans nest through a **thread-local** stack, so the plan service's worker
pool, the unified runner and the benchmark harness all trace correctly under
concurrency: a worker thread's spans parent onto that worker's own open span,
never onto another thread's.  Finished spans are appended to a shared record
list as immutable :class:`SpanRecord` values, ready for the Chrome
``trace_event`` exporter and the text tree report in
:mod:`repro.obs.export`.

Two entry points trade overhead against guaranteed timing:

``tracer.span(name, ...)``
    The hot-path form.  When the tracer is disabled it returns a stateless
    no-op singleton — no allocation, no clock reads — so instrumented code
    costs essentially nothing in production runs.

``tracer.timed(name, ...)``
    Always measures (the span's ``seconds`` attribute is valid even when
    tracing is off) but records only when enabled.  This is what timing
    migrations use: the number a report carries and the span a trace shows
    come from the *same* clock window, so they can never disagree.

The module-level default tracer (:func:`get_tracer`) starts disabled unless
the ``REPRO_OBS`` environment variable is set to a non-empty value other
than ``0``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Iterator

from contextlib import contextmanager


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: what ran, where, for how long, under what parent."""

    name: str
    category: str
    start: float
    duration: float
    thread_id: int
    thread_name: str
    span_id: int
    parent_id: int | None
    depth: int
    attributes: dict[str, Any]

    @property
    def end(self) -> float:
        return self.start + self.duration


class _NoopSpan:
    """Stateless do-nothing span; the disabled tracer's singleton fast path."""

    __slots__ = ()

    #: Disabled spans report zero seconds; use :meth:`SpanTracer.timed` when
    #: the measured duration must be valid regardless of tracing state.
    seconds = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Span:
    """An in-progress span; use as a context manager.

    ``seconds`` is always measured.  The span registers on its thread's stack
    and appends a :class:`SpanRecord` on exit only when ``record`` is true.
    """

    __slots__ = (
        "_tracer",
        "_record",
        "_start",
        "name",
        "category",
        "attributes",
        "seconds",
        "span_id",
        "parent_id",
        "depth",
    )

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        category: str,
        attributes: dict[str, Any],
        record: bool,
    ) -> None:
        self._tracer = tracer
        self._record = record
        self.name = name
        self.category = category
        self.attributes = attributes
        self.seconds = 0.0
        self.span_id = -1
        self.parent_id: int | None = None
        self.depth = 0

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable, valid until exit."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        if self._record:
            stack = self._tracer._stack()
            self.span_id = self._tracer._next_id()
            if stack:
                self.parent_id = stack[-1].span_id
            self.depth = len(stack)
            stack.append(self)
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        end = self._tracer._clock()
        self.seconds = end - self._start
        if self._record:
            stack = self._tracer._stack()
            if stack and stack[-1] is self:
                stack.pop()
            thread = threading.current_thread()
            self._tracer._append(
                SpanRecord(
                    name=self.name,
                    category=self.category,
                    start=self._start,
                    duration=self.seconds,
                    thread_id=thread.ident or 0,
                    thread_name=thread.name,
                    span_id=self.span_id,
                    parent_id=self.parent_id,
                    depth=self.depth,
                    attributes=dict(self.attributes),
                )
            )
        return False


class SpanTracer:
    """Collects spans from any number of threads into one record list."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        enabled: bool = False,
    ) -> None:
        self._clock = clock
        self._enabled = enabled
        self._records: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = count()

    # ------------------------------------------------------------- span entry
    def span(self, name: str, category: str = "", **attributes: Any):
        """A recording span when enabled; the free no-op singleton otherwise."""
        if not self._enabled:
            return NOOP_SPAN
        return Span(self, name, category, attributes, record=True)

    def timed(self, name: str, category: str = "", **attributes: Any) -> Span:
        """A span whose ``seconds`` is measured even with tracing disabled.

        Recording still only happens when the tracer is enabled; use this
        wherever the measured duration feeds a report, so the report and the
        trace share one clock window.
        """
        return Span(self, name, category, attributes, record=self._enabled)

    # ----------------------------------------------------------------- state
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    @contextmanager
    def capture(self) -> Iterator["SpanTracer"]:
        """Enable tracing for the block, restoring the prior state after."""
        previous = self._enabled
        self._enabled = True
        try:
            yield self
        finally:
            self._enabled = previous

    # --------------------------------------------------------------- records
    def records(self) -> list[SpanRecord]:
        """Snapshot of every finished span, in completion order."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------- internals
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        # itertools.count.__next__ is atomic under the GIL.
        return next(self._ids)

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "") not in ("", "0")


_GLOBAL_TRACER = SpanTracer(enabled=_env_enabled())


def get_tracer() -> SpanTracer:
    """The process-wide default tracer every instrumented component uses."""
    return _GLOBAL_TRACER
