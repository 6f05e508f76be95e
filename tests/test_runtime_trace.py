"""Unit tests for utilization traces."""

import hashlib
import random

import pytest

from repro.baselines import SYSTEM_CLASSES, make_system
from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.models import multitask_clip_tasks
from repro.obs.export import chrome_trace_document, write_chrome_trace
from repro.runtime.engine import RuntimeEngine
from repro.runtime.trace import TraceSegment, UtilizationTrace

#: SHA-256 of the Chrome trace written for CLIP-4 on 16 GPUs (below) by the
#: per-segment trace that preceded block recording.
CLIP4_16GPU_CHROME_TRACE_SHA256 = (
    "8f7ac9791ea1e3450517da33bf4ba4db04083594c63131d2779c73b4268822b0"
)


def reference_aggregates(trace: UtilizationTrace, num_points: int) -> dict:
    """Every trace aggregate, summed segment by segment."""
    segments = trace.segments
    busy = {d: 0.0 for d in range(trace.num_devices)}
    totals = {d: 0.0 for d in range(trace.num_devices)}
    for seg in segments:
        busy[seg.device_id] += seg.duration
        totals[seg.device_id] += seg.flops
    if trace.end_time <= 0:
        average = {d: 0.0 for d in range(trace.num_devices)}
        cluster = 0.0
    else:
        average = {d: total / trace.end_time for d, total in totals.items()}
        cluster = sum(seg.flops for seg in segments) / trace.end_time
    timeline = [(0.0, 0.0)]
    if trace.end_time > 0:
        step = trace.end_time / num_points
        timeline = []
        for i in range(num_points):
            t_lo, t_hi = i * step, (i + 1) * step
            total = 0.0
            for seg in segments:
                overlap = min(seg.end, t_hi) - max(seg.start, t_lo)
                if overlap > 0:
                    total += seg.flops_per_second * overlap
            timeline.append((t_lo, total / step))
    times: dict[int, float] = {}
    flops: dict[int, float] = {}
    for seg in segments:
        if seg.metaop_index is None:
            continue
        times[seg.metaop_index] = times.get(seg.metaop_index, 0.0) + seg.duration
        flops[seg.metaop_index] = flops.get(seg.metaop_index, 0.0) + seg.flops
    per_metaop = {i: flops[i] / times[i] for i in times if times[i] > 0}
    peak = trace.peak_flops_per_device
    return {
        "device_busy_time": busy,
        "device_average_flops": average,
        "device_utilization": {d: v / peak for d, v in average.items()},
        "cluster_average_flops": cluster,
        "cluster_timeline": timeline,
        "metaop_average_flops": per_metaop,
        "metaop_utilization": {i: v / peak for i, v in per_metaop.items()},
    }


def bits(value):
    """``value`` with every float replaced by its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, bits(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


def assert_aggregates_match_segments(
    trace: UtilizationTrace, num_points: int = 8, label: str = ""
) -> None:
    """Each block aggregate equals its per-segment recomputation, bit for bit."""
    expected = reference_aggregates(trace, num_points)
    actual = {
        "device_busy_time": trace.device_busy_time(),
        "device_average_flops": trace.device_average_flops(),
        "device_utilization": trace.device_utilization(),
        "cluster_average_flops": trace.cluster_average_flops(),
        "cluster_timeline": trace.cluster_timeline(num_points),
        "metaop_average_flops": trace.metaop_average_flops(),
        "metaop_utilization": trace.metaop_utilization(),
    }
    for name, value in expected.items():
        assert bits(actual[name]) == bits(value), f"{name} {label}"


class TestTraceSegment:
    def test_duration_and_flops(self):
        seg = TraceSegment(device_id=0, start=1.0, end=3.0, flops_per_second=5.0)
        assert seg.duration == 2.0
        assert seg.flops == 10.0

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            TraceSegment(device_id=0, start=2.0, end=1.0, flops_per_second=1.0)
        with pytest.raises(ValueError):
            TraceSegment(device_id=0, start=0.0, end=1.0, flops_per_second=-1.0)


class TestUtilizationTrace:
    @pytest.fixture
    def trace(self):
        trace = UtilizationTrace(num_devices=2, peak_flops_per_device=100.0)
        trace.add_busy(0, start=0.0, duration=1.0, flops_per_second=50.0, metaop_index=0)
        trace.add_busy(0, start=1.0, duration=1.0, flops_per_second=100.0, metaop_index=1)
        trace.add_busy(1, start=0.0, duration=2.0, flops_per_second=25.0, metaop_index=0)
        return trace

    def test_end_time_tracks_latest_segment(self, trace):
        assert trace.end_time == 2.0

    def test_device_id_validated(self, trace):
        with pytest.raises(ValueError):
            trace.add_busy(5, start=0.0, duration=1.0, flops_per_second=1.0)

    def test_device_busy_time(self, trace):
        busy = trace.device_busy_time()
        assert busy[0] == pytest.approx(2.0)
        assert busy[1] == pytest.approx(2.0)

    def test_device_average_flops(self, trace):
        avg = trace.device_average_flops()
        assert avg[0] == pytest.approx((50 + 100) / 2.0)
        assert avg[1] == pytest.approx(25.0)

    def test_device_utilization_fraction_of_peak(self, trace):
        util = trace.device_utilization()
        assert util[0] == pytest.approx(0.75)
        assert util[1] == pytest.approx(0.25)

    def test_cluster_average_flops(self, trace):
        assert trace.cluster_average_flops() == pytest.approx((150 + 50) / 2.0)

    def test_cluster_timeline_integrates_to_total_flops(self, trace):
        points = trace.cluster_timeline(num_points=50)
        assert len(points) == 50
        step = trace.end_time / 50
        integral = sum(value * step for _, value in points)
        total = sum(seg.flops for seg in trace.segments)
        assert integral == pytest.approx(total, rel=1e-6)

    def test_cluster_timeline_shows_idle_periods(self):
        trace = UtilizationTrace(num_devices=1, peak_flops_per_device=10.0)
        trace.add_busy(0, start=0.0, duration=1.0, flops_per_second=10.0)
        trace.add_busy(0, start=3.0, duration=1.0, flops_per_second=10.0)
        points = trace.cluster_timeline(num_points=4)
        values = [value for _, value in points]
        assert values[0] > 0
        assert values[1] == pytest.approx(0.0)
        assert values[2] == pytest.approx(0.0)

    def test_metaop_utilization(self, trace):
        metaop_flops = trace.metaop_average_flops()
        assert metaop_flops[0] == pytest.approx((50 * 1 + 25 * 2) / 3.0)
        assert metaop_flops[1] == pytest.approx(100.0)
        util = trace.metaop_utilization()
        assert util[1] == pytest.approx(1.0)

    def test_empty_trace(self):
        trace = UtilizationTrace(num_devices=2, peak_flops_per_device=10.0)
        assert trace.cluster_average_flops() == 0.0
        assert trace.device_utilization() == {0: 0.0, 1: 0.0}
        assert trace.cluster_timeline() == [(0.0, 0.0)]
        assert trace.metaop_utilization() == {}

    def test_invalid_timeline_resolution(self, trace):
        with pytest.raises(ValueError):
            trace.cluster_timeline(num_points=0)


class TestBusyBlocks:
    @pytest.fixture
    def trace(self):
        return UtilizationTrace(num_devices=4, peak_flops_per_device=100.0)

    @pytest.mark.parametrize(
        ("devices", "duration", "rate", "message"),
        [
            ((0, 4), 1.0, 1.0, "outside"),
            ((-1, 0), 1.0, 1.0, "outside"),
            ((0, 1), 1.0, -1.0, "negative throughput"),
            ((0, 1), -1.0, 1.0, "ends before it starts"),
        ],
    )
    def test_invalid_block_raises_like_add_busy(
        self, trace, devices, duration, rate, message
    ):
        with pytest.raises(ValueError, match=message):
            trace.add_block(devices, start=0.0, duration=duration, flops_per_second=rate)
        bad = [d for d in devices if not 0 <= d < 4] or [devices[0]]
        with pytest.raises(ValueError, match=message):
            trace.add_busy(bad[0], start=0.0, duration=duration, flops_per_second=rate)
        assert trace.blocks == []
        assert trace.segments == []
        assert trace.end_time == 0.0

    def test_empty_block_records_nothing(self, trace):
        trace.add_block((), start=0.0, duration=5.0, flops_per_second=1.0)
        assert trace.blocks == []
        assert trace.end_time == 0.0

    def test_segments_follow_block_insertion_order(self, trace):
        trace.add_block((2, 0), start=0.0, duration=1.0, flops_per_second=5.0, label="a")
        trace.add_busy(3, start=0.5, duration=1.0, flops_per_second=7.0, metaop_index=1)
        assert [(seg.device_id, seg.label) for seg in trace.segments] == [
            (2, "a"),
            (0, "a"),
            (3, ""),
        ]
        assert trace.segments[2] == TraceSegment(
            device_id=3, start=0.5, end=1.5, flops_per_second=7.0, metaop_index=1
        )

    def test_segments_rebuilt_after_a_later_add(self, trace):
        trace.add_block((0, 1), start=0.0, duration=1.0, flops_per_second=5.0)
        first = trace.segments
        assert trace.segments is first
        trace.add_block((1, 2, 3), start=1.0, duration=2.0, flops_per_second=3.0)
        assert [seg.device_id for seg in trace.segments] == [0, 1, 1, 2, 3]
        assert trace.end_time == 3.0

    def test_random_overlapping_blocks_match_segment_sums(self):
        rng = random.Random(7)
        trace = UtilizationTrace(num_devices=6, peak_flops_per_device=50.0)
        for _ in range(40):
            devices = rng.sample(range(6), rng.randint(1, 6))
            trace.add_block(
                devices,
                start=rng.uniform(0.0, 3.0),
                duration=rng.uniform(0.0, 1.3),
                flops_per_second=rng.uniform(0.0, 40.0),
                metaop_index=rng.choice((None, 0, 1, 2)),
            )
        for num_points in (1, 7, 64):
            assert_aggregates_match_segments(trace, num_points)

    @pytest.mark.parametrize("system", sorted(SYSTEM_CLASSES))
    def test_system_traces_match_segment_sums(self, system):
        """Baselines record one block per operator, overlapping in time."""
        result = make_system(system, make_cluster(8)).run_iteration(
            multitask_clip_tasks(3)
        )
        assert_aggregates_match_segments(result.trace, num_points=16)

    def test_chrome_trace_of_a_16gpu_plan_is_unchanged(self, tmp_path):
        plan = ExecutionPlanner(make_cluster(16)).plan(multitask_clip_tasks(4))
        trace = RuntimeEngine(plan).run_iteration().trace
        path = write_chrome_trace(
            tmp_path / "trace.json", chrome_trace_document([], utilization=trace)
        )
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == CLIP4_16GPU_CHROME_TRACE_SHA256
