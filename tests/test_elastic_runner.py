"""End-to-end elastic training runs: replanning, caching, determinism.

An elastic run is a :class:`UnifiedScenario` over a fixed task set whose
timeline holds cluster events only.
"""

import json

import pytest

from repro.cluster.device import A800_SPEC, TEST_GPU_SPEC
from repro.elastic import (
    ClusterEvent,
    ElasticClusterView,
    EventTimeline,
    ImmediateReplanPolicy,
    ReplanCostModel,
    SlowdownThresholdPolicy,
    flash_crowd_timeline,
    island_outage_timeline,
    random_failure_timeline,
)
from repro.elastic.events import (
    DEVICE_FAILURE,
    DEVICE_RECOVERY,
    NODE_JOIN,
    NODE_LEAVE,
    STRAGGLER_CLEAR,
    STRAGGLER_ONSET,
)
from repro.service import PlanCache
from repro.unified import (
    UnifiedRunError,
    UnifiedRunner,
    UnifiedScenario,
    UnifiedTimeline,
    arrival_during_outage_timeline,
)
from repro.unified.runtime import _stay_slowdown
from tests.conftest import make_chain_task


def make_tasks():
    return [
        make_chain_task("audio_task", {"audio": 2, "lm": 2}, batch=8),
        make_chain_task("vision_task", {"vision": 2, "lm": 2}, batch=4),
    ]


def scenario_with(timeline, iterations=60, nodes=2, per_node=4, spare=()):
    """The two tasks under ``timeline``; ``spare`` tasks may arrive later."""
    tasks = make_tasks()
    names = tuple(task.name for task in tasks)
    if not isinstance(timeline, UnifiedTimeline):
        timeline = UnifiedTimeline(cluster_events=timeline)
    return UnifiedScenario(
        num_nodes=nodes,
        devices_per_node=per_node,
        device_spec=A800_SPEC,
        timeline=timeline,
        total_iterations=iterations,
        task_pool={task.name: task for task in (*tasks, *spare)},
        initial_tasks=names,
        name="test",
    )


def fail(node, device, at):
    return ClusterEvent(DEVICE_FAILURE, at_iteration=at, node=node, device=device)


def recover(node, device, at):
    return ClusterEvent(DEVICE_RECOVERY, at_iteration=at, node=node, device=device)


class TestScenarioValidation:
    def test_events_beyond_horizon_rejected(self):
        timeline = EventTimeline([fail(0, 0, 60)])
        with pytest.raises(UnifiedRunError):
            scenario_with(timeline, iterations=60)

    def test_empty_task_set_rejected(self):
        with pytest.raises(UnifiedRunError):
            UnifiedScenario(
                num_nodes=2,
                devices_per_node=4,
                device_spec=A800_SPEC,
                timeline=UnifiedTimeline(),
                total_iterations=60,
                task_pool={},
                initial_tasks=(),
            )


class TestElasticRun:
    def test_eventless_run_matches_baseline_exactly(self):
        result = UnifiedRunner(scenario_with(EventTimeline())).run()
        assert result.total_seconds == pytest.approx(result.baseline_seconds)
        assert result.cumulative_slowdown == pytest.approx(1.0)
        assert result.replan_count == 0
        assert len(result.segments) == 1
        assert result.segments[0].num_iterations == 60

    def test_capacity_loss_forces_replan_and_charges_migration(self):
        timeline = EventTimeline([fail(0, 1, 20)])
        result = UnifiedRunner(
            scenario_with(timeline), policy=SlowdownThresholdPolicy(10.0)
        ).run()
        assert result.replan_count == 1
        outcome = result.outcomes[0]
        assert outcome.forced and outcome.replanned
        assert outcome.migration is not None
        assert outcome.migration.total_seconds > 0
        assert outcome.num_devices == 7
        # The degraded plan runs slower: total exceeds the no-failure run.
        assert result.cumulative_slowdown > 1.0

    def test_recovery_to_known_topology_hits_the_plan_cache(self):
        timeline = EventTimeline([fail(0, 1, 20), recover(0, 1, 40)])
        result = UnifiedRunner(
            scenario_with(timeline), policy=ImmediateReplanPolicy()
        ).run()
        assert result.replan_count == 2
        recovery = result.outcomes[1]
        assert recovery.replan is not None and recovery.replan.cache_hit
        # Cached replans charge the (much cheaper) cache-hit cost.
        model = ReplanCostModel()
        assert recovery.replan.charged_seconds == model.cached_plan_seconds

    def test_threshold_policy_rides_through_small_changes(self):
        onset = ClusterEvent(
            STRAGGLER_ONSET, at_iteration=20, node=0, severity=0.9
        )
        result = UnifiedRunner(
            scenario_with(EventTimeline([onset])),
            policy=SlowdownThresholdPolicy(threshold=0.5),
        ).run()
        assert result.replan_count == 0
        outcome = result.outcomes[0]
        assert not outcome.forced and not outcome.replanned
        # Training continues on the old plan, paced by the straggler.
        assert outcome.stay_slowdown == pytest.approx(1.0 / 0.9)
        assert result.segments[-1].iteration_seconds > (
            result.segments[0].iteration_seconds
        )

    def test_severe_straggler_triggers_threshold_replan(self):
        onset = ClusterEvent(
            STRAGGLER_ONSET, at_iteration=20, node=0, severity=0.4
        )
        clear = ClusterEvent(STRAGGLER_CLEAR, at_iteration=40, node=0)
        result = UnifiedRunner(
            scenario_with(EventTimeline([onset, clear])),
            policy=SlowdownThresholdPolicy(threshold=0.5),
        ).run()
        assert result.outcomes[0].replanned  # 2.5x estimated > 1.5x
        assert not result.outcomes[0].forced
        assert result.outcomes[0].migration is not None

    def test_flash_crowd_expansion_replans_and_adopts_capacity(self):
        timeline = flash_crowd_timeline(20, 2, 4, A800_SPEC)
        result = UnifiedRunner(
            scenario_with(timeline), policy=SlowdownThresholdPolicy(threshold=0.1)
        ).run()
        outcome = result.outcomes[0]
        assert outcome.replanned and not outcome.forced  # 2x forgone > 1.1x
        assert outcome.estimated_slowdown == pytest.approx(2.0)
        assert outcome.num_devices == 16
        # Adopting the new capacity re-shards parameters onto it.
        assert outcome.migration is not None
        assert outcome.migration.total_bytes > 0
        # These toy tasks are sync-dominated, so the expansion must not make
        # iterations dramatically slower — but it need not speed them up.
        # (Total slowdown is dominated by the fixed replan/migration charges
        # against this tiny baseline, so compare pure training time.)
        assert result.training_seconds / result.baseline_seconds < 1.25

    def test_heterogeneous_expansion_plans_on_mixed_specs(self):
        timeline = flash_crowd_timeline(20, 1, 4, TEST_GPU_SPEC)
        runner = UnifiedRunner(
            scenario_with(timeline), policy=ImmediateReplanPolicy()
        )
        result = runner.run()
        assert result.outcomes[0].replanned
        assert result.outcomes[0].num_devices == 12
        assert len(runner._planners) == 2  # one planner per topology signature

    def test_island_outage_and_return(self):
        timeline = island_outage_timeline(1, 4, at_iteration=20, recovery_at=40)
        result = UnifiedRunner(
            scenario_with(timeline), policy=ImmediateReplanPolicy()
        ).run()
        # One replan for the outage (4 same-iteration failures), one for the
        # recovery group.
        assert result.replan_count == 2
        assert result.outcomes[0].num_devices == 4
        assert result.outcomes[1].num_devices == 8
        assert result.outcomes[1].replan.cache_hit

    def test_debounce_counts_event_groups(self):
        events = EventTimeline(
            [
                ClusterEvent(
                    STRAGGLER_ONSET, at_iteration=10, node=0, severity=0.8
                ),
                ClusterEvent(STRAGGLER_CLEAR, at_iteration=20, node=0),
            ]
        )
        from repro.elastic import DebouncedReplanPolicy

        result = UnifiedRunner(
            scenario_with(events), policy=DebouncedReplanPolicy(min_groups=2)
        ).run()
        assert [outcome.replanned for outcome in result.outcomes] == [False, True]


class TestReportDeterminism:
    def test_identical_seeds_byte_identical_reports(self):
        def run():
            timeline = random_failure_timeline(2, 4, 60, 2, seed=5)
            runner = UnifiedRunner(
                scenario_with(timeline), policy=SlowdownThresholdPolicy(0.1)
            )
            return runner.run()

        first = json.dumps(run().to_document(), sort_keys=True, indent=2)
        second = json.dumps(run().to_document(), sort_keys=True, indent=2)
        assert first == second

    def test_document_excludes_measured_wall_clock(self):
        timeline = EventTimeline([fail(0, 0, 20)])
        result = UnifiedRunner(scenario_with(timeline)).run()
        document = json.dumps(result.to_document())
        assert "measured" not in document
        assert result.replan_measured_seconds > 0  # still tracked out-of-band

    def test_segments_tile_the_horizon_in_order(self):
        timeline = EventTimeline([fail(0, 0, 20), recover(0, 0, 40)])
        result = UnifiedRunner(
            scenario_with(timeline), policy=ImmediateReplanPolicy()
        ).run()
        starts = [segment.start_iteration for segment in result.segments]
        assert starts[0] == 0
        assert {20, 40} <= set(starts)
        for segment, following in zip(result.segments, result.segments[1:]):
            assert following.start_iteration == (
                segment.start_iteration + segment.num_iterations
            )
        assert sum(s.num_iterations for s in result.segments) == 60
        assert result.total_seconds == pytest.approx(
            sum(s.seconds for s in result.segments) + result.overhead_seconds
        )

    def test_run_totals_sum_the_per_event_documents(self):
        timeline = island_outage_timeline(1, 4, at_iteration=20, recovery_at=40)
        result = UnifiedRunner(
            scenario_with(timeline), policy=ImmediateReplanPolicy()
        ).run()
        document = result.to_document()
        migrations = [e["migration"] for e in document["events"] if e["migration"]]
        assert migrations
        assert result.migration_bytes == pytest.approx(
            sum(m["moved_bytes"] + m["restored_bytes"] for m in migrations)
        )
        assert result.migration_bytes > 0
        # The total is derived from the per-event documents only.
        assert "migration_bytes" not in document


class TestStaySlowdown:
    """Pacing of the old plan on the current substrate, without a replan."""

    def test_worst_surviving_node_ratio_paces_the_old_plan(self):
        view = ElasticClusterView(3, 4, A800_SPEC)
        planned = view.snapshot()
        view.apply_all([
            ClusterEvent(STRAGGLER_ONSET, at_iteration=1, node=0, severity=0.8),
            ClusterEvent(
                STRAGGLER_ONSET, at_iteration=1, node=1, device=2, severity=0.5
            ),
        ])
        assert _stay_slowdown(planned, view.snapshot()) == pytest.approx(2.0)
        # A straggling device that then fails no longer paces its node.
        view.apply(fail(1, 2, 2))
        assert _stay_slowdown(planned, view.snapshot()) == pytest.approx(1.25)

    def test_lost_and_added_capacity_do_not_pace(self):
        view = ElasticClusterView(2, 4, A800_SPEC)
        planned = view.snapshot()
        view.apply_all([
            ClusterEvent(NODE_LEAVE, at_iteration=1, node=1),
            ClusterEvent(
                NODE_JOIN, at_iteration=1, spec=TEST_GPU_SPEC, num_devices=4
            ),
            fail(0, 3, 1),
        ])
        assert _stay_slowdown(planned, view.snapshot()) == 1.0


class TestPerDeviceStragglerRuns:
    def test_single_gpu_straggler_slows_only_its_group(self):
        onset = ClusterEvent(
            STRAGGLER_ONSET, at_iteration=20, node=0, device=1, severity=0.5
        )
        result = UnifiedRunner(
            scenario_with(EventTimeline([onset])),
            policy=SlowdownThresholdPolicy(threshold=10.0),
        ).run()
        outcome = result.outcomes[0]
        assert not outcome.replanned
        # Staying on the old plan paces the afflicted island (and only it) at
        # half rate; the worst per-group ratio is 2x.
        assert outcome.stay_slowdown == pytest.approx(2.0)

    def test_gpu_straggler_replan_plans_on_demoted_class(self):
        onset = ClusterEvent(
            STRAGGLER_ONSET, at_iteration=20, node=0, device=1, severity=0.4
        )
        clear = ClusterEvent(
            STRAGGLER_CLEAR, at_iteration=40, node=0, device=1
        )
        result = UnifiedRunner(
            scenario_with(EventTimeline([onset, clear])),
            policy=ImmediateReplanPolicy(),
        ).run()
        assert result.outcomes[0].replanned
        # The demoted island forms its own spec class, so the replan lands on
        # a different substrate; the heal returns to the original topology
        # and is served from the plan cache.  (No iteration-time ordering is
        # asserted: the heterogeneity-aware replan may well *beat* the
        # baseline plan by concentrating these sync-dominated toy tasks on
        # the healthy island.)
        assert result.outcomes[0].topology_signature != (
            result.outcomes[1].topology_signature
        )
        assert result.outcomes[1].replan.cache_hit


class TestCheckpointIntervalRuns:
    def test_island_outage_charges_lost_progress(self):
        timeline = island_outage_timeline(1, 4, at_iteration=23, recovery_at=40)
        plain = UnifiedRunner(
            scenario_with(timeline), policy=ImmediateReplanPolicy()
        ).run()
        from repro.elastic import MigrationCostModel

        charged = UnifiedRunner(
            scenario_with(island_outage_timeline(1, 4, at_iteration=23, recovery_at=40)),
            policy=ImmediateReplanPolicy(),
            migration_model=MigrationCostModel(checkpoint_interval=10),
        ).run()
        outage = charged.outcomes[0].migration
        if outage.num_restored_groups > 0:
            assert outage.lost_iterations == 23 % 10
            assert outage.recompute_seconds > 0
            assert charged.overhead_seconds > plain.overhead_seconds
        else:
            # Survivors held every shard: nothing restored, nothing lost.
            assert outage.recompute_seconds == 0.0


def island_outage_scenario():
    return scenario_with(island_outage_timeline(1, 4, at_iteration=20, recovery_at=40))


def arrival_during_outage_scenario():
    """The outage composed with one task arriving on the degraded cluster."""
    timeline = arrival_during_outage_timeline(
        ["text_task"], outage_node=1, devices_per_node=4,
        at_iteration=20, recovery_at=40,
    )
    spare = make_chain_task("text_task", {"text": 2, "lm": 2}, batch=8)
    return scenario_with(timeline, spare=[spare])


def plans_and_training(result):
    """The run's document without what a cache hit changes: the replan
    records and the overhead they charge."""
    document = result.to_document()
    return {
        "training_seconds": document["training_seconds"],
        "migration_seconds": document["migration_seconds"],
        "replan_count": document["replan_count"],
        "segments": document["segments"],
        "events": [
            {key: value for key, value in event.items() if key != "replan"}
            for event in document["events"]
        ],
    }


class TestSharedPlanCacheRuns:
    @pytest.mark.parametrize(
        "scenario", [island_outage_scenario, arrival_during_outage_scenario]
    )
    def test_warm_cache_run_matches_direct_run(self, scenario):
        """A run served entirely from plans another run solved trains on the
        same plans, segments and migrations as a run that solves its own."""
        direct = UnifiedRunner(scenario(), policy=ImmediateReplanPolicy()).run()
        shared = PlanCache()
        UnifiedRunner(
            scenario(), policy=ImmediateReplanPolicy(), plan_cache=shared
        ).run()
        warm = UnifiedRunner(
            scenario(), policy=ImmediateReplanPolicy(), plan_cache=shared
        ).run()
        assert warm.initial_plan.cache_hit
        assert warm.replan_count > 0
        assert all(
            outcome.replan.cache_hit
            for outcome in warm.outcomes
            if outcome.replan is not None
        )
        assert json.dumps(plans_and_training(warm), sort_keys=True) == json.dumps(
            plans_and_training(direct), sort_keys=True
        )

    def test_jobs_share_plans_through_one_plan_cache(self):
        """Runs handed one fresh cache share it: the second job's initial
        plan and every replan are hits on the plans the first job solved."""

        def timeline():
            return island_outage_timeline(1, 4, at_iteration=20, recovery_at=40)

        shared = PlanCache()
        runners = [
            UnifiedRunner(
                scenario_with(timeline()),
                policy=ImmediateReplanPolicy(),
                plan_cache=shared,
            )
            for _ in range(2)
        ]
        assert all(runner.plan_cache is shared for runner in runners)
        first = runners[0].run()
        second = runners[1].run()
        assert not first.initial_plan.cache_hit
        # Every plan the second job needs is already in the shared cache.
        assert second.initial_plan.cache_hit
        assert all(
            outcome.replan.cache_hit
            for outcome in second.outcomes
            if outcome.replan is not None
        )
        assert second.overhead_seconds < first.overhead_seconds
