"""Unified observability layer: spans, metrics and trace exporters.

``repro.obs`` is the shared instrumentation substrate of the reproduction.
It deliberately depends on nothing else in the package (the planner, service,
unified runner and simulator all import it), and it stays out of the way when
unused: the default tracer is disabled unless ``REPRO_OBS`` is set or a
caller enables it, and a disabled span is a stateless no-op singleton.

* :mod:`repro.obs.tracer` — nested, thread-local wall-clock spans.
* :mod:`repro.obs.metrics` — counters/gauges/histograms under canonical
  ``name{label=value}`` keys, with snapshot/diff and ``BENCH_*.json`` export;
  :class:`~repro.obs.metrics.Histogram` is the one latency store.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (simulated
  utilization rendered as counter tracks beside the wall-clock spans),
  a schema validator, and the plain-text span tree report.
* :mod:`repro.obs.telemetry` — request-scoped telemetry: deterministic
  trace IDs, the append-only structured event journal, and the
  ``reconstruct_requests`` lifecycle reducer.
* :mod:`repro.obs.slo` — sliding-window per-tenant/per-topology SLO
  tracking (latency percentiles, availability, error-budget burn) against
  declared :class:`~repro.obs.slo.SloPolicy` targets.
"""

from repro.obs.export import (
    SIM_PID,
    WALL_PID,
    TraceValidationError,
    chrome_trace_document,
    render_span_tree,
    span_events,
    spans_from_chrome_trace,
    utilization_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    RELATIVE_ACCURACY,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    MetricsSnapshot,
    get_metrics,
    metric_key,
    split_metric_key,
)
from repro.obs.slo import SloPolicy, SloReport, SloTracker, slo_from_outcomes
from repro.obs.telemetry import (
    EVENT_KINDS,
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    RequestLifecycle,
    TelemetryJournal,
    TraceIdGenerator,
    attribution_report,
    reconstruct_requests,
    validate_event,
    validate_journal,
)
from repro.obs.tracer import NOOP_SPAN, Span, SpanRecord, SpanTracer, get_tracer

__all__ = [
    "EVENT_KINDS",
    "JOURNAL_SCHEMA_VERSION",
    "NOOP_SPAN",
    "RELATIVE_ACCURACY",
    "SIM_PID",
    "WALL_PID",
    "Histogram",
    "HistogramSummary",
    "JournalError",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RequestLifecycle",
    "SloPolicy",
    "SloReport",
    "SloTracker",
    "Span",
    "SpanRecord",
    "SpanTracer",
    "TelemetryJournal",
    "TraceIdGenerator",
    "TraceValidationError",
    "attribution_report",
    "chrome_trace_document",
    "get_metrics",
    "get_tracer",
    "metric_key",
    "reconstruct_requests",
    "render_span_tree",
    "slo_from_outcomes",
    "span_events",
    "spans_from_chrome_trace",
    "split_metric_key",
    "utilization_events",
    "validate_chrome_trace",
    "validate_event",
    "validate_journal",
    "write_chrome_trace",
]
