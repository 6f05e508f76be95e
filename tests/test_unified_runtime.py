"""Unified runtime: event model, composed scenarios, incremental == full.

The load-bearing property: every scenario run with ``incremental=True``
produces a canonical report **byte-identical** to the retained full-replan
reference (``incremental=False``), including per-outcome plan fingerprints —
incremental replanning may only change planner latency, never plan contents.
A seeded corpus of (workload event × cluster event) orderings, including
same-iteration tie-breaks, pins this across the composition space.
"""

import json
import random

import pytest

from repro.cluster.device import A800_SPEC
from repro.dynamic import DynamicWorkloadSchedule
from repro.elastic import ClusterEvent, EventTimeline, island_outage_timeline
from repro.elastic.events import DEVICE_FAILURE, NODE_JOIN, STRAGGLER_ONSET
from repro.obs import get_metrics
from repro.unified import (
    PHASE_CHANGE,
    TASK_ARRIVAL,
    TASK_DEPARTURE,
    UnifiedEventError,
    UnifiedRunError,
    UnifiedRunner,
    UnifiedScenario,
    UnifiedTimeline,
    WorkloadEvent,
    apply_workload_events,
    arrival_during_outage_timeline,
    flash_crowd_on_degraded_timeline,
    job_churn_timeline,
)
from tests.conftest import make_chain_task


def make_pool():
    """Five small tasks; shared-scope param keys keep churn twins isomorphic."""
    tasks = [
        make_chain_task("audio_task", {"audio": 1, "lm": 1}, batch=8,
                        shared_prefix="zoo.audio"),
        make_chain_task("vision_task", {"vision": 1, "lm": 1}, batch=4,
                        shared_prefix="zoo.vision"),
        make_chain_task("text_task", {"text": 1, "lm": 1}, batch=8,
                        shared_prefix="zoo.text"),
        make_chain_task("depth_task", {"depth": 1, "lm": 1}, batch=4,
                        shared_prefix="zoo.depth"),
        make_chain_task("vision_task_v2", {"vision": 1, "lm": 1}, batch=4,
                        shared_prefix="zoo.vision"),
    ]
    tasks[-1].weight = 2.0  # resubmission twin: fingerprint miss, same structure
    return {task.name: task for task in tasks}


INITIAL = ("audio_task", "vision_task", "text_task")


def scenario_with(timeline, iterations=60, initial=INITIAL, nodes=2, per_node=4):
    return UnifiedScenario(
        num_nodes=nodes,
        devices_per_node=per_node,
        device_spec=A800_SPEC,
        timeline=timeline,
        total_iterations=iterations,
        task_pool=make_pool(),
        initial_tasks=initial,
        name="test",
    )


def workload(kind, at, names):
    return WorkloadEvent(kind, at_iteration=at, task_names=tuple(names))


def canonical(result) -> str:
    return json.dumps(result.to_document(), sort_keys=True)


# ------------------------------------------------------------- event model
class TestEventModel:
    def test_rejects_unknown_kind_and_bad_fields(self):
        with pytest.raises(UnifiedEventError):
            WorkloadEvent("task_restart", at_iteration=1, task_names=("a",))
        with pytest.raises(UnifiedEventError):
            workload(TASK_ARRIVAL, -1, ["a"])
        with pytest.raises(UnifiedEventError):
            workload(TASK_ARRIVAL, 1, [])
        with pytest.raises(UnifiedEventError):
            workload(TASK_ARRIVAL, 1, ["a", "a"])

    def test_groups_are_ordered_and_merged_per_iteration(self):
        timeline = UnifiedTimeline()
        timeline.add_workload(workload(TASK_ARRIVAL, 30, ["depth_task"]))
        timeline.add_cluster(
            ClusterEvent(DEVICE_FAILURE, at_iteration=30, node=1, device=0)
        )
        timeline.add_cluster(
            ClusterEvent(STRAGGLER_ONSET, at_iteration=10, node=0, severity=0.5)
        )
        groups = timeline.grouped_by_iteration()
        assert [g.at_iteration for g in groups] == [10, 30]
        assert groups[1].num_events == 2
        assert groups[1].cluster_events[0].kind == DEVICE_FAILURE
        assert groups[1].workload_events[0].kind == TASK_ARRIVAL

    def test_same_iteration_workload_events_keep_insertion_order(self):
        timeline = UnifiedTimeline()
        timeline.add_workload(workload(TASK_DEPARTURE, 20, ["text_task"]))
        timeline.add_workload(workload(TASK_ARRIVAL, 20, ["depth_task"]))
        (group,) = timeline.grouped_by_iteration()
        assert [e.kind for e in group.workload_events] == [
            TASK_DEPARTURE,
            TASK_ARRIVAL,
        ]

    def test_timeline_extend_and_len(self):
        a = UnifiedTimeline(workload_events=[workload(TASK_ARRIVAL, 5, ["x"])])
        b = UnifiedTimeline(
            cluster_events=EventTimeline(
                [ClusterEvent(NODE_JOIN, at_iteration=3,
                              num_devices=4, spec=A800_SPEC)]
            )
        )
        assert len(a.extend(b)) == 2
        assert a.last_iteration == 5

    def test_empty_cluster_timeline_is_kept_not_replaced(self):
        """A caller's fresh (empty, hence falsy) cluster timeline is the one
        the unified timeline reads: events added to it later show up."""
        cluster = EventTimeline()
        timeline = UnifiedTimeline(cluster_events=cluster)
        assert timeline.cluster_events is cluster
        cluster.add(ClusterEvent(DEVICE_FAILURE, at_iteration=7, node=0, device=0))
        assert len(timeline) == 1
        assert [g.at_iteration for g in timeline.grouped_by_iteration()] == [7]

    def test_apply_workload_events_semantics(self):
        pool = make_pool()
        active = list(INITIAL)
        active = apply_workload_events(
            active, [workload(TASK_ARRIVAL, 1, ["depth_task"])], pool
        )
        assert active == [*INITIAL, "depth_task"]
        active = apply_workload_events(
            active, [workload(TASK_DEPARTURE, 2, ["vision_task"])], pool
        )
        assert active == ["audio_task", "text_task", "depth_task"]
        active = apply_workload_events(
            active, [workload(PHASE_CHANGE, 3, ["text_task", "audio_task"])], pool
        )
        assert active == ["text_task", "audio_task"]

    @pytest.mark.parametrize(
        "events",
        [
            [workload(TASK_ARRIVAL, 1, ["audio_task"])],  # already active
            [workload(TASK_ARRIVAL, 1, ["nope"])],  # unknown
            [workload(TASK_DEPARTURE, 1, ["depth_task"])],  # not active
            [workload(PHASE_CHANGE, 1, ["nope"])],  # unknown
            [  # empties the active set
                workload(TASK_DEPARTURE, 1, ["audio_task"]),
                workload(TASK_DEPARTURE, 1, ["vision_task"]),
                workload(TASK_DEPARTURE, 1, ["text_task"]),
            ],
        ],
    )
    def test_apply_workload_events_rejects_invalid_streams(self, events):
        with pytest.raises(UnifiedRunError):
            apply_workload_events(list(INITIAL), events, make_pool())


# ------------------------------------------------------------- scenarios
class TestScenarioValidation:
    def test_rejects_events_beyond_total_iterations(self):
        timeline = UnifiedTimeline(
            workload_events=[workload(TASK_ARRIVAL, 60, ["depth_task"])]
        )
        with pytest.raises(UnifiedRunError):
            scenario_with(timeline, iterations=60)

    def test_rejects_invalid_stream_eagerly(self):
        timeline = UnifiedTimeline(
            workload_events=[workload(TASK_DEPARTURE, 10, ["depth_task"])]
        )
        with pytest.raises(UnifiedRunError):
            scenario_with(timeline)

    def test_rejects_unknown_initial_tasks_and_empty_pool(self):
        with pytest.raises(UnifiedRunError):
            scenario_with(UnifiedTimeline(), initial=("ghost",))

    def test_generator_determinism(self):
        kwargs = dict(
            arriving_tasks=["depth_task"], num_new_nodes=1, devices_per_node=4,
            spec=A800_SPEC, num_nodes=2, total_iterations=60, seed=3,
        )
        a = flash_crowd_on_degraded_timeline(**kwargs)
        b = flash_crowd_on_degraded_timeline(**kwargs)
        assert a.to_document() == b.to_document()

    def test_job_churn_requires_active_old_task(self):
        with pytest.raises(UnifiedEventError):
            job_churn_timeline(INITIAL, [("depth_task", "x")], [10])

    def test_from_dynamic_bridge(self):
        pool = make_pool()
        schedule = DynamicWorkloadSchedule.from_tasks(
            list(pool.values()),
            phases=[(INITIAL, 20), (INITIAL[:2], 20), (INITIAL, 20)],
        )
        scenario = UnifiedScenario.from_dynamic(
            schedule, num_nodes=2, devices_per_node=4, device_spec=A800_SPEC
        )
        assert scenario.initial_tasks == INITIAL
        assert scenario.total_iterations == 60
        events = scenario.timeline.workload_events
        assert [e.at_iteration for e in events] == [20, 40]
        assert all(e.kind == PHASE_CHANGE for e in events)


# --------------------------------------------- incremental == full corpus
def corpus():
    """Composed scenarios covering the (workload × cluster) ordering space."""
    scenarios = {
        "arrival-during-outage": scenario_with(
            arrival_during_outage_timeline(
                ["depth_task"], outage_node=1, devices_per_node=4,
                at_iteration=20, recovery_at=40,
            )
        ),
        "flash-crowd-degraded": scenario_with(
            flash_crowd_on_degraded_timeline(
                ["depth_task"], num_new_nodes=1, devices_per_node=4,
                spec=A800_SPEC, num_nodes=2, total_iterations=60, seed=1,
            )
        ),
        "iso-churn": scenario_with(
            job_churn_timeline(
                INITIAL, [("vision_task", "vision_task_v2")], [30]
            )
        ),
        "departure-with-straggler-tie": scenario_with(
            UnifiedTimeline(
                cluster_events=EventTimeline([
                    ClusterEvent(STRAGGLER_ONSET, at_iteration=25, node=0,
                                 severity=0.5),
                ]),
                workload_events=[workload(TASK_DEPARTURE, 25, ["text_task"])],
            )
        ),
        "arrival-then-departure-same-group": scenario_with(
            UnifiedTimeline(workload_events=[
                workload(TASK_ARRIVAL, 15, ["depth_task"]),
                workload(TASK_DEPARTURE, 15, ["audio_task"]),
            ])
        ),
    }
    # Seeded random compositions: every workload kind × cluster kind pairing,
    # with and without same-iteration ties.
    for seed in range(3):
        rng = random.Random(seed)
        timeline = UnifiedTimeline()
        iteration = rng.randrange(5, 20)
        timeline.add_cluster(
            ClusterEvent(DEVICE_FAILURE, at_iteration=iteration,
                         node=rng.randrange(2), device=rng.randrange(4))
        )
        workload_at = iteration if rng.random() < 0.5 else iteration + 10
        kind = rng.choice([TASK_ARRIVAL, TASK_DEPARTURE, PHASE_CHANGE])
        names = {
            TASK_ARRIVAL: ["depth_task"],
            TASK_DEPARTURE: ["vision_task"],
            PHASE_CHANGE: ["text_task", "audio_task", "vision_task_v2"],
        }[kind]
        timeline.add_workload(workload(kind, workload_at, names))
        scenarios[f"seeded-{seed}"] = scenario_with(timeline)
    return scenarios


@pytest.mark.parametrize("name", sorted(corpus()))
def test_incremental_equals_full_replan(name):
    scenario = corpus()[name]
    incremental = UnifiedRunner(scenario, incremental=True).run()
    full = UnifiedRunner(scenario, incremental=False).run()
    assert canonical(incremental) == canonical(full)
    for a, b in zip(incremental.outcomes, full.outcomes):
        assert a.plan_fingerprint == b.plan_fingerprint
    assert full.levels_reused == 0


def test_run_is_deterministic():
    scenario = corpus()["arrival-during-outage"]
    assert canonical(UnifiedRunner(scenario).run()) == canonical(
        UnifiedRunner(scenario).run()
    )


# ------------------------------------------------------------ runner logic
class TestRunnerBehaviour:
    def test_task_set_change_forces_replan(self):
        timeline = UnifiedTimeline(
            workload_events=[workload(TASK_ARRIVAL, 30, ["depth_task"])]
        )
        result = UnifiedRunner(scenario_with(timeline)).run()
        (outcome,) = result.outcomes
        assert outcome.task_set_changed and outcome.forced and outcome.replanned
        assert outcome.active_tasks == (*INITIAL, "depth_task")
        assert result.task_set_changes == 1

    def test_isomorphic_churn_reuses_whole_plan_structure(self):
        timeline = job_churn_timeline(
            INITIAL, [("vision_task", "vision_task_v2")], [30]
        )
        result = UnifiedRunner(scenario_with(timeline), incremental=True).run()
        (outcome,) = result.outcomes
        assert not outcome.replan.cache_hit  # weight changed the fingerprint
        assert outcome.replan.levels_reused > 0
        assert result.levels_reused == outcome.replan.levels_reused

    def test_substrate_applies_before_workload_in_tie(self):
        """The arrival composed with an outage plans on the degraded cluster."""
        timeline = arrival_during_outage_timeline(
            ["depth_task"], outage_node=1, devices_per_node=4, at_iteration=20
        )
        result = UnifiedRunner(scenario_with(timeline)).run()
        outcome = result.outcomes[0]
        assert outcome.num_devices == 4  # 8 devices minus the dark island
        assert outcome.task_set_changed

    def test_phase_return_hits_plan_cache(self):
        timeline = UnifiedTimeline(workload_events=[
            workload(PHASE_CHANGE, 20, ("audio_task", "vision_task")),
            workload(PHASE_CHANGE, 40, INITIAL),
        ])
        result = UnifiedRunner(scenario_with(timeline)).run()
        assert result.replan_count == 2
        assert result.cache_hits == 1  # the return to the initial task set

    def test_metrics_flow_into_shared_elastic_schema(self):
        metrics = get_metrics()
        before = metrics.snapshot()
        timeline = UnifiedTimeline(
            workload_events=[workload(TASK_ARRIVAL, 30, ["depth_task"])]
        )
        UnifiedRunner(scenario_with(timeline)).run()
        delta = metrics.snapshot().diff(before)
        assert any(key.startswith("elastic.replans") for key in delta.counters)
        assert any(
            key.startswith("elastic.replan_seconds") for key in delta.histograms
        )

    def test_mode_attribute_reflects_planner_path(self):
        scenario = scenario_with(UnifiedTimeline(
            workload_events=[workload(TASK_ARRIVAL, 30, ["depth_task"])]
        ))
        assert UnifiedRunner(scenario, incremental=True).run().mode == "incremental"
        assert UnifiedRunner(scenario, incremental=False).run().mode == "full"
