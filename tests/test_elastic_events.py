"""Cluster events, timelines and the seeded scenario generators."""

import pytest

from repro.cluster.device import A800_SPEC, TEST_GPU_SPEC
from repro.elastic.events import (
    DEVICE_FAILURE,
    DEVICE_RECOVERY,
    NODE_JOIN,
    NODE_LEAVE,
    STRAGGLER_CLEAR,
    STRAGGLER_ONSET,
    ClusterEvent,
    ElasticEventError,
    EventTimeline,
    flash_crowd_timeline,
    island_outage_timeline,
    merge_timelines,
    random_failure_timeline,
    gpu_straggler_timeline,
    rolling_straggler_timeline,
)
from repro.unified import UnifiedTimeline


class TestClusterEvent:
    def test_failure_and_recovery_need_node_and_device(self):
        event = ClusterEvent(DEVICE_FAILURE, at_iteration=5, node=1, device=3)
        assert event.describe() == "device_failure(n1:d3)"
        with pytest.raises(ElasticEventError):
            ClusterEvent(DEVICE_FAILURE, at_iteration=5, node=1)
        with pytest.raises(ElasticEventError):
            ClusterEvent(DEVICE_RECOVERY, at_iteration=5, device=3)

    def test_node_join_requires_spec_and_size_but_no_node(self):
        event = ClusterEvent(
            NODE_JOIN, at_iteration=1, spec=TEST_GPU_SPEC, num_devices=4
        )
        assert "TestGPU" in event.describe()
        with pytest.raises(ElasticEventError):
            ClusterEvent(NODE_JOIN, at_iteration=1, num_devices=4)
        with pytest.raises(ElasticEventError):
            ClusterEvent(NODE_JOIN, at_iteration=1, spec=TEST_GPU_SPEC, num_devices=0)
        with pytest.raises(ElasticEventError):
            ClusterEvent(
                NODE_JOIN, at_iteration=1, node=0, spec=TEST_GPU_SPEC, num_devices=4
            )

    def test_straggler_severity_bounds(self):
        ClusterEvent(STRAGGLER_ONSET, at_iteration=1, node=0, severity=0.5)
        for severity in (0.0, 1.0, -0.1, None):
            with pytest.raises(ElasticEventError):
                ClusterEvent(
                    STRAGGLER_ONSET, at_iteration=1, node=0, severity=severity
                )

    def test_unknown_kind_and_negative_iteration_rejected(self):
        with pytest.raises(ElasticEventError):
            ClusterEvent("meteor_strike", at_iteration=1, node=0)
        with pytest.raises(ElasticEventError):
            ClusterEvent(NODE_LEAVE, at_iteration=-1, node=0)

    def test_to_document_is_minimal(self):
        doc = ClusterEvent(STRAGGLER_CLEAR, at_iteration=9, node=2).to_document()
        assert doc == {"kind": "straggler_clear", "at_iteration": 9, "node": 2}


class TestEventTimeline:
    def test_events_kept_sorted_by_iteration(self):
        timeline = EventTimeline(
            [
                ClusterEvent(DEVICE_FAILURE, at_iteration=30, node=0, device=0),
                ClusterEvent(DEVICE_FAILURE, at_iteration=10, node=0, device=1),
            ]
        )
        timeline.add(ClusterEvent(DEVICE_RECOVERY, at_iteration=20, node=0, device=1))
        assert [e.at_iteration for e in timeline] == [10, 20, 30]
        assert timeline.last_iteration == 30

    def test_grouping_preserves_same_iteration_order(self):
        timeline = EventTimeline()
        for device in range(4):
            timeline.add(
                ClusterEvent(DEVICE_FAILURE, at_iteration=7, node=0, device=device)
            )
        timeline.add(ClusterEvent(NODE_LEAVE, at_iteration=9, node=1))
        groups = UnifiedTimeline(cluster_events=timeline).grouped_by_iteration()
        assert [(g.at_iteration, len(g.cluster_events)) for g in groups] == [
            (7, 4),
            (9, 1),
        ]
        assert [e.device for e in groups[0].cluster_events] == [0, 1, 2, 3]


class TestGenerators:
    def test_random_failures_are_seed_deterministic(self):
        a = random_failure_timeline(2, 8, 100, 3, seed=11)
        b = random_failure_timeline(2, 8, 100, 3, seed=11)
        c = random_failure_timeline(2, 8, 100, 3, seed=12)
        assert [e.to_document() for e in a] == [e.to_document() for e in b]
        assert [e.to_document() for e in a] != [e.to_document() for e in c]

    def test_random_failures_never_double_fail_a_device(self):
        timeline = random_failure_timeline(2, 8, 1000, 16, seed=0)
        failed = [
            (e.node, e.device) for e in timeline if e.kind == DEVICE_FAILURE
        ]
        assert len(failed) == len(set(failed)) == 16

    def test_random_failures_recover_within_horizon(self):
        timeline = random_failure_timeline(1, 8, 50, 4, seed=2, repair_iterations=10)
        downs = {(e.node, e.device): e.at_iteration for e in timeline
                 if e.kind == DEVICE_FAILURE}
        for event in timeline:
            if event.kind == DEVICE_RECOVERY:
                assert event.at_iteration == downs[(event.node, event.device)] + 10
                assert event.at_iteration < 50

    def test_too_many_failures_rejected(self):
        with pytest.raises(ElasticEventError):
            random_failure_timeline(1, 4, 100, 5, seed=0)

    def test_island_outage_covers_every_slot(self):
        timeline = island_outage_timeline(1, 8, at_iteration=10, recovery_at=20)
        failures = [e for e in timeline if e.kind == DEVICE_FAILURE]
        recoveries = [e for e in timeline if e.kind == DEVICE_RECOVERY]
        assert sorted(e.device for e in failures) == list(range(8))
        assert all(e.node == 1 for e in failures)
        assert all(e.at_iteration == 20 for e in recoveries)

    def test_flash_crowd_joins_with_the_requested_spec(self):
        timeline = flash_crowd_timeline(5, 3, 8, TEST_GPU_SPEC)
        assert len(timeline) == 3
        assert all(e.kind == NODE_JOIN and e.spec is TEST_GPU_SPEC for e in timeline)

    def test_rolling_stragglers_onset_then_clear(self):
        timeline = rolling_straggler_timeline(
            4, 200, 6, seed=3, severity=0.4, episode_iterations=20
        )
        onsets = [e for e in timeline if e.kind == STRAGGLER_ONSET]
        assert len(onsets) == 6
        assert all(e.severity == 0.4 for e in onsets)

    @pytest.mark.parametrize("seed", range(8))
    def test_rolling_straggler_episodes_never_overlap_per_node(self, seed):
        """Regression: an overlapping same-node pair would let the earlier
        episode's clear prematurely heal the later one."""
        timeline = rolling_straggler_timeline(
            1, 100, 3, seed=seed, episode_iterations=20
        )
        intervals = []
        for event in timeline:
            if event.kind == STRAGGLER_ONSET:
                intervals.append((event.at_iteration, event.at_iteration + 20))
        intervals.sort()
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert start >= end

    def test_merge_timelines(self):
        merged = merge_timelines(
            [
                island_outage_timeline(0, 2, at_iteration=10),
                flash_crowd_timeline(5, 1, 8, A800_SPEC),
            ]
        )
        assert [e.at_iteration for e in merged] == [5, 10, 10]


class TestPerDeviceStragglerEvents:
    def test_device_scoped_straggler_events_validate(self):
        onset = ClusterEvent(
            STRAGGLER_ONSET, at_iteration=1, node=0, device=3, severity=0.5
        )
        clear = ClusterEvent(STRAGGLER_CLEAR, at_iteration=2, node=0, device=3)
        assert onset.describe() == "straggler_onset(n0:d3@0.5)"
        assert clear.describe() == "straggler_clear(n0:d3)"
        assert onset.to_document()["device"] == 3
        assert clear.to_document()["device"] == 3

    def test_gpu_straggler_timeline_is_deterministic(self):
        a = gpu_straggler_timeline(2, 4, 100, 5, seed=3)
        b = gpu_straggler_timeline(2, 4, 100, 5, seed=3)
        assert a.to_document() == b.to_document()
        assert any(e.device is not None for e in a if e.kind == STRAGGLER_ONSET)

    def test_gpu_straggler_episodes_target_single_slots(self):
        timeline = gpu_straggler_timeline(2, 4, 100, 8, seed=1, severity=0.4)
        for event in timeline:
            assert event.node is not None
            assert event.device is not None
            if event.kind == STRAGGLER_ONSET:
                assert event.severity == 0.4

    @pytest.mark.parametrize("seed", [0, 7])
    def test_gpu_straggler_episodes_never_overlap_per_slot(self, seed):
        timeline = gpu_straggler_timeline(
            2, 2, 200, 12, seed=seed, episode_iterations=30
        )
        open_slots = set()
        for event in timeline:
            slot = (event.node, event.device)
            if event.kind == STRAGGLER_ONSET:
                assert slot not in open_slots
                open_slots.add(slot)
            else:
                open_slots.discard(slot)

    @pytest.mark.parametrize("seed", range(12))
    def test_gpu_straggler_episodes_strictly_separated(self, seed):
        """No two events of one slot may share an iteration: same-iteration
        events apply in insertion order, so a zero-gap pair's clear could
        silently wipe the adjacent episode's onset (regression)."""
        timeline = gpu_straggler_timeline(
            2, 2, 60, 10, seed=seed, episode_iterations=10
        )
        per_slot: dict = {}
        for event in timeline:
            per_slot.setdefault((event.node, event.device), []).append(event)
        for events in per_slot.values():
            iterations = [event.at_iteration for event in events]
            assert len(iterations) == len(set(iterations))
            kinds = [event.kind for event in sorted(events, key=lambda e: e.at_iteration)]
            for first, second in zip(kinds, kinds[1:]):
                assert first != second  # strict onset/clear alternation

    @pytest.mark.parametrize("seed", range(12))
    def test_rolling_straggler_episodes_strictly_separated(self, seed):
        timeline = rolling_straggler_timeline(
            2, 60, 10, seed=seed, episode_iterations=10
        )
        per_node: dict = {}
        for event in timeline:
            per_node.setdefault(event.node, []).append(event)
        for events in per_node.values():
            iterations = [event.at_iteration for event in events]
            assert len(iterations) == len(set(iterations))
