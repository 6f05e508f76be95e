"""Elastic recovery: seeded device failures with event-driven replanning.

Replays a seeded random-failure scenario (failures with later recovery) for
Multitask-CLIP on 16 GPUs through the unified runner, as a fixed task set
under cluster events only: capacity-loss events force a replan routed through the per-topology incremental planner and
the shared plan cache; recoveries ride the slowdown-threshold policy.  The
gated metrics are fully deterministic — simulated iteration times, the
charged replan cost model, and the migration cost model — so a change that
erodes recovery quality (more migration bytes, slower degraded plans, lost
plan-cache hits) fails the gate.
"""

from bench_utils import emit

from repro.bench import Metric, informational, invariant, register_benchmark
from repro.cluster.device import A800_SPEC
from repro.elastic import SlowdownThresholdPolicy, random_failure_timeline
from repro.experiments.reporting import render_elastic_result
from repro.experiments.workloads import clip_workload
from repro.unified import UnifiedRunner, UnifiedScenario, UnifiedTimeline

WORKLOAD = clip_workload(4, 16)
TOTAL_ITERATIONS = 200
NUM_FAILURES = 3
SEED = 0


def _scenario(tasks) -> UnifiedScenario:
    num_nodes, per_node = 2, 8
    timeline = random_failure_timeline(
        num_nodes=num_nodes,
        devices_per_node=per_node,
        total_iterations=TOTAL_ITERATIONS,
        num_failures=NUM_FAILURES,
        seed=SEED,
    )
    names = tuple(task.name for task in tasks)
    return UnifiedScenario(
        num_nodes=num_nodes,
        devices_per_node=per_node,
        device_spec=A800_SPEC,
        timeline=UnifiedTimeline(cluster_events=timeline),
        total_iterations=TOTAL_ITERATIONS,
        task_pool=dict(zip(names, tasks)),
        initial_tasks=names,
        name=f"random-failures-seed{SEED}",
    )


def _run(tasks):
    runner = UnifiedRunner(
        _scenario(tasks), policy=SlowdownThresholdPolicy(threshold=0.1)
    )
    return runner.run()


@register_benchmark(
    "elastic_recovery",
    stage="elastic",
    tags=("elastic", "dynamic", "smoke"),
    description="Seeded failure/recovery scenario: replan + migration overheads",
)
def bench_elastic_recovery(ctx):
    result = _run(ctx.tasks(WORKLOAD))
    return {
        "cumulative_slowdown": Metric(result.cumulative_slowdown, "x"),
        "baseline_iteration_ms": Metric(
            result.baseline_iteration_seconds * 1e3, "ms"
        ),
        "migration_gib": invariant(
            result.migration_bytes / 1024**3, "GiB", threshold=0.05
        ),
        "migration_seconds": invariant(result.migration_seconds, "s", threshold=0.05),
        "replan_count": invariant(float(result.replan_count), "replans"),
        "plan_cache_hits": invariant(float(result.cache_hits), "hits"),
        "overhead_fraction": Metric(
            result.overhead_seconds / result.total_seconds, "fraction"
        ),
        "replan_measured_s": informational(result.replan_measured_seconds, "s"),
    }


def test_elastic_recovery(once_per_session_cache):
    tasks = once_per_session_cache.tasks(WORKLOAD)
    result = _run(tasks)
    emit("elastic_recovery", render_elastic_result(result))

    # Capacity-loss events always replan; the scenario has NUM_FAILURES of them.
    forced = [outcome for outcome in result.outcomes if outcome.forced]
    assert len(forced) == NUM_FAILURES
    assert all(outcome.replanned for outcome in forced)
    # Failures slow training down, but recovery keeps the damage bounded.
    assert 1.0 < result.cumulative_slowdown < 2.0
    # Replanning + migration stays a small fraction of the training time.
    assert result.overhead_seconds < 0.5 * result.training_seconds

    # The same seed reproduces the canonical report byte for byte.
    import json

    again = _run(tasks)
    assert json.dumps(result.to_document(), sort_keys=True) == json.dumps(
        again.to_document(), sort_keys=True
    )
