"""Replan policies: when an elastic event is worth a fresh execution plan.

Replanning is cheap (the incremental planner re-profiles only unseen MetaOps
and the plan cache serves recurring topologies outright) but not free, and a
plan switch also pays the migration cost of re-sharding parameters.  The
policy engine decides, per group of simultaneous events, whether to replan now
or keep running the current plan:

* :class:`ImmediateReplanPolicy` — replan on every event group (the paper's
  Appendix-D behaviour transplanted to substrate changes).
* :class:`DebouncedReplanPolicy` — absorb event churn: replan only once a
  minimum number of event groups has accumulated since the last replan.
* :class:`SlowdownThresholdPolicy` — replan only when the estimated slowdown
  of *not* replanning exceeds a threshold.

Capacity-loss events (device failure, node leave) bypass the policy entirely:
the old plan references devices that no longer exist, so the runner always
replans those (see :mod:`repro.unified.runtime`).

The slowdown estimate is deliberately first-order and topology-only — it must
be computable without running the planner.  Two effects are folded in:

* **degradation** — the current plan paces on its slowest device, so the
  slowdown of staying is the pacing penalty over the *nodes the plan actually
  runs on* (a straggler throttling one of them to 50% doubles the estimate;
  a slow node that merely joined does not — the plan never touches it).  The
  runner computes this from its snapshots and passes it in as
  ``ReplanContext.stay_slowdown``;
* **forgone capacity** — after an expansion the current plan uses only the
  old devices, so the achievable-throughput ratio of new to old topology
  bounds what a replan could recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.topology import ClusterTopology
from repro.elastic.events import ClusterEvent


@dataclass(frozen=True)
class ReplanContext:
    """Everything a policy may consult for one event group."""

    events: tuple[ClusterEvent, ...]
    old_topology: ClusterTopology
    new_topology: ClusterTopology
    #: Event groups seen since the last replan, including this one.
    pending_groups: int
    #: Training iterations executed since the last replan.
    iterations_since_replan: int
    #: Pacing penalty of keeping the current plan, over the nodes it actually
    #: runs on (the runner derives it from its snapshots; 1.0 = no penalty).
    stay_slowdown: float = 1.0

    @property
    def estimated_slowdown(self) -> float:
        """First-order slowdown of keeping the current plan (1.0 = none).

        ``max(degradation, forgone capacity)`` — the two effects rarely
        coexist in one event group, and a max keeps the estimate conservative
        without double-charging.
        """
        return max(
            self.stay_slowdown,
            forgone_capacity_gain(self.old_topology, self.new_topology),
        )


def forgone_capacity_gain(
    old_topology: ClusterTopology, new_topology: ClusterTopology
) -> float:
    """Throughput a replan could at most recover after a capacity change.

    The achievable-FLOP/s ratio of new to old topology, clamped at 1.0:
    added capacity idles until a replan adopts it, lost capacity forces a
    replan anyway (and must not read as a *gain* of staying).
    """
    gain = new_topology.total_achievable_flops / max(
        old_topology.total_achievable_flops, 1e-12
    )
    return max(1.0, gain)


class ReplanPolicy:
    """Base policy: decides whether an event group triggers a replan."""

    name = "abstract"

    def should_replan(self, context: ReplanContext) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class ImmediateReplanPolicy(ReplanPolicy):
    """Replan on every event group."""

    name = "immediate"

    def should_replan(self, context: ReplanContext) -> bool:
        return True


class DebouncedReplanPolicy(ReplanPolicy):
    """Replan once ``min_groups`` event groups accumulated since the last one.

    A burst of joins or straggler flaps is absorbed into one replan instead of
    paying planner + migration cost per event.
    """

    name = "debounced"

    def __init__(self, min_groups: int = 2) -> None:
        if min_groups <= 0:
            raise ValueError("min_groups must be positive")
        self.min_groups = min_groups

    def should_replan(self, context: ReplanContext) -> bool:
        return context.pending_groups >= self.min_groups

    def describe(self) -> str:
        return f"debounced(min_groups={self.min_groups})"


class SlowdownThresholdPolicy(ReplanPolicy):
    """Replan when the estimated slowdown of staying exceeds ``threshold``.

    ``threshold`` is fractional: ``0.1`` replans once staying is estimated to
    cost more than 10% — minor stragglers and token expansions ride through.
    """

    name = "threshold"

    def __init__(self, threshold: float = 0.1) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold

    def should_replan(self, context: ReplanContext) -> bool:
        return context.estimated_slowdown - 1.0 > self.threshold

    def describe(self) -> str:
        return f"threshold({self.threshold:g})"


def make_policy(
    name: str,
    *,
    min_groups: int = 2,
    threshold: float = 0.1,
) -> ReplanPolicy:
    """Policy factory used by the CLI and benchmarks."""
    if name == "immediate":
        return ImmediateReplanPolicy()
    if name == "debounced":
        return DebouncedReplanPolicy(min_groups=min_groups)
    if name == "threshold":
        return SlowdownThresholdPolicy(threshold=threshold)
    raise ValueError(
        f"Unknown replan policy {name!r}; expected one of {POLICY_NAMES}"
    )


POLICY_NAMES: Sequence[str] = ("immediate", "debounced", "threshold")
