"""Elastic cluster subsystem: failure injection and event-driven replanning.

Production multi-task training lives with device failures, stragglers and
elastic capacity changes; this package adds the machinery to express and
evaluate such scenarios on the simulated substrate:

* :mod:`repro.elastic.events` — cluster events (failure/recovery, node
  join/leave, straggler onset/clear), iteration-ordered timelines and seeded
  scenario generators,
* :mod:`repro.elastic.view` — a mutable cluster view deriving a fresh, valid
  :class:`~repro.cluster.topology.ClusterTopology` after each event,
* :mod:`repro.elastic.policy` — replan policies (immediate, debounced,
  slowdown-threshold),
* :mod:`repro.elastic.migration` — the plan-switch cost models: migration
  (parameter re-shard transfers + checkpoint restores) and replanning.

Runs are driven by :class:`repro.unified.UnifiedRunner`: an elastic run is a
:class:`~repro.unified.UnifiedScenario` whose timeline holds cluster events
only (``UnifiedTimeline(cluster_events=...)``) over a fixed task set.
"""

from repro.elastic.events import (
    CAPACITY_LOSS_KINDS,
    DEVICE_FAILURE,
    DEVICE_RECOVERY,
    EVENT_KINDS,
    NODE_JOIN,
    NODE_LEAVE,
    STRAGGLER_CLEAR,
    STRAGGLER_ONSET,
    ClusterEvent,
    ElasticEventError,
    EventTimeline,
    flash_crowd_timeline,
    gpu_straggler_timeline,
    island_outage_timeline,
    merge_timelines,
    random_failure_timeline,
    rolling_straggler_timeline,
)
from repro.elastic.migration import (
    MigrationCostModel,
    MigrationGroup,
    MigrationReport,
    ReplanCostModel,
)
from repro.elastic.policy import (
    POLICY_NAMES,
    DebouncedReplanPolicy,
    ImmediateReplanPolicy,
    ReplanContext,
    ReplanPolicy,
    SlowdownThresholdPolicy,
    forgone_capacity_gain,
    make_policy,
)
from repro.elastic.view import (
    ElasticClusterView,
    ElasticSnapshot,
    ElasticViewError,
    device_key,
)

__all__ = [
    "CAPACITY_LOSS_KINDS",
    "ClusterEvent",
    "DEVICE_FAILURE",
    "DEVICE_RECOVERY",
    "DebouncedReplanPolicy",
    "ElasticClusterView",
    "ElasticEventError",
    "ElasticSnapshot",
    "ElasticViewError",
    "EVENT_KINDS",
    "EventTimeline",
    "ImmediateReplanPolicy",
    "MigrationCostModel",
    "MigrationGroup",
    "MigrationReport",
    "NODE_JOIN",
    "NODE_LEAVE",
    "POLICY_NAMES",
    "ReplanContext",
    "ReplanCostModel",
    "ReplanPolicy",
    "STRAGGLER_CLEAR",
    "STRAGGLER_ONSET",
    "SlowdownThresholdPolicy",
    "device_key",
    "flash_crowd_timeline",
    "forgone_capacity_gain",
    "gpu_straggler_timeline",
    "island_outage_timeline",
    "make_policy",
    "merge_timelines",
    "random_failure_timeline",
    "rolling_straggler_timeline",
]
