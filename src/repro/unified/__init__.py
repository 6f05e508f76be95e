"""Unified event-driven runtime: workload and cluster events on one timeline.

The one replanning loop: elastic runs (cluster events over a fixed task set)
and dynamic task sets (workload events) run through a single event-driven
runner with incremental replanning.  See
``docs/architecture.md`` for how this package sits on top of ``elastic/`` and
``dynamic/``, and ``docs/events.md`` for the event model and its ordering
rules.
"""

from repro.unified.events import (
    PHASE_CHANGE,
    TASK_ARRIVAL,
    TASK_DEPARTURE,
    WORKLOAD_EVENT_KINDS,
    EventGroup,
    UnifiedEventError,
    UnifiedTimeline,
    WorkloadEvent,
    arrival_during_outage_timeline,
    flash_crowd_on_degraded_timeline,
    job_churn_timeline,
)
from repro.unified.runtime import (
    UnifiedEventOutcome,
    UnifiedReplanRecord,
    UnifiedRunError,
    UnifiedRunResult,
    UnifiedRunner,
    UnifiedScenario,
    UnifiedSegment,
    apply_workload_events,
)

__all__ = [
    "PHASE_CHANGE",
    "TASK_ARRIVAL",
    "TASK_DEPARTURE",
    "WORKLOAD_EVENT_KINDS",
    "EventGroup",
    "UnifiedEventError",
    "UnifiedEventOutcome",
    "UnifiedReplanRecord",
    "UnifiedRunError",
    "UnifiedRunResult",
    "UnifiedRunner",
    "UnifiedScenario",
    "UnifiedSegment",
    "UnifiedTimeline",
    "WorkloadEvent",
    "apply_workload_events",
    "arrival_during_outage_timeline",
    "flash_crowd_on_degraded_timeline",
    "job_churn_timeline",
]
