"""Tests for the flash-crowd load-replay harness (and its CLI surface)."""

import pytest

from repro.cli import main
from repro.experiments.load_replay import (
    HIT_COST_MS,
    LoadReplayError,
    arrival_schedule,
    fleet_request_stream,
    run_load_replay,
    simulate_fleet,
)
from repro.experiments.workloads import clip_workload
from repro.obs import RELATIVE_ACCURACY
from repro.obs.slo import SloTracker


class TestArrivalSchedule:
    def test_monotone_and_sized(self):
        times = arrival_schedule(100, rate=1000.0, scenario="steady", seed=3)
        assert len(times) == 100
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_deterministic_per_seed(self):
        assert arrival_schedule(50, 500.0, seed=1) == arrival_schedule(
            50, 500.0, seed=1
        )
        assert arrival_schedule(50, 500.0, seed=1) != arrival_schedule(
            50, 500.0, seed=2
        )

    def test_flash_crowd_bursts_in_the_middle(self):
        times = arrival_schedule(
            300, rate=100.0, scenario="flash-crowd", seed=0, burst_factor=10.0
        )
        warmup = times[99] - times[0]
        crowd = times[199] - times[100]
        assert crowd < warmup / 3  # the middle third arrives much faster

    def test_rejects_bad_configuration(self):
        with pytest.raises(LoadReplayError):
            arrival_schedule(10, rate=100.0, scenario="tsunami")
        with pytest.raises(LoadReplayError):
            arrival_schedule(10, rate=0.0)


class TestFleetRequestStream:
    def test_uniques_beyond_task_count(self, tiny_tasks):
        # 2 tasks yield 3 contiguous windows — more uniques than the
        # nested-prefix generator's len(tasks) cap.
        stream, unique = fleet_request_stream(tiny_tasks, 40, num_unique=5)
        assert len(stream) == 40
        assert unique == 3 > len(tiny_tasks)
        assert len({id(w) for w in stream}) == 3  # interned tuples

    def test_leads_with_full_workload(self, tiny_tasks):
        stream, _ = fleet_request_stream(tiny_tasks, 10, num_unique=3, seed=0)
        assert any(len(w) == len(tiny_tasks) for w in stream)


class TestSimulateFleet:
    def test_single_flight_coalesces_concurrent_duplicates(self):
        # Three arrivals of one fingerprint while its 10ms solve is in
        # flight: one miss, two coalesced, nobody pays a second solve.
        arrivals = [0.0, 0.001, 0.002, 0.5]
        fps = ["aa", "aa", "aa", "aa"]
        run = simulate_fleet(arrivals, fps, {"aa": 10.0}, num_shards=2)
        assert run.solves == 1
        assert run.coalesced == 2
        assert run.hits == 1  # the late arrival after completion

    def test_hits_cost_less_than_solves(self):
        # Two solves and eight hits: the two largest latencies are solves and
        # the middle ones hits, so nearest-rank and interpolated percentiles
        # agree that p99 is the solve cost and p50 the hit cost.
        arrivals = [float(second) for second in range(10)]
        run = simulate_fleet(
            arrivals, ["aa", "bb"] * 5, {"aa": 10.0, "bb": 10.0}, num_shards=1
        )
        assert (run.solves, run.hits) == (2, 8)
        assert run.p99_ms == pytest.approx(10.0, rel=RELATIVE_ACCURACY)
        assert run.p50_ms == pytest.approx(HIT_COST_MS, rel=RELATIVE_ACCURACY)

    def test_sharding_parallelizes_backlogged_solves(self):
        # 8 distinct fingerprints arriving at once: 1 shard serializes all
        # eight solves, 8 shards (if routing spreads them) overlap them.
        fps = [f"{i:x}" * 16 for i in range(8)]
        arrivals = [0.0] * 8
        costs = {fp: 10.0 for fp in fps}
        one = simulate_fleet(arrivals, fps, costs, num_shards=1)
        many = simulate_fleet(arrivals, fps, costs, num_shards=8)
        assert one.makespan_seconds == pytest.approx(0.08)
        assert many.makespan_seconds < one.makespan_seconds

    def test_records_into_slo_tracker(self):
        slo = SloTracker()
        simulate_fleet([0.0, 0.5], ["aa", "aa"], {"aa": 5.0}, 1, slo=slo)
        report = slo.report()
        assert report.count == 2
        assert report.availability == 1.0


class TestRunLoadReplay:
    def test_small_campaign_verifies_and_scales(self):
        result = run_load_replay(
            clip_workload(4, 8),
            num_requests=60,
            num_unique=8,
            rate=20000.0,
            shard_counts=(1, 4),
            real_shards=2,
            num_clients=2,
            seed=5,
        )
        assert result.num_requests == 60
        assert result.failed_requests == 0
        assert result.payload_match_rate == 1.0
        assert result.scaling_ratio(1, 4) > 1.0
        assert sum(result.shard_census) == 60

    def test_rejects_unknown_scenario(self):
        with pytest.raises(LoadReplayError):
            run_load_replay(clip_workload(2, 8), scenario="tsunami")


class TestFleetBenchCli:
    def test_fleet_bench_prints_replay_table(self, capsys):
        exit_code = main(
            [
                "fleet-bench",
                "--model", "multitask-clip",
                "--tasks", "3",
                "--gpus", "8",
                "--requests", "40",
                "--unique", "6",
                "--shards", "2",
                "--slo",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "plan-service fleet replay" in output
        assert "simulated scaling 1->4 shards" in output
        assert "payload match" in output

    def test_fleet_bench_rejects_bad_arguments(self, capsys):
        for argv in (
            ["fleet-bench", "--model", "multitask-clip", "--requests", "0"],
            ["fleet-bench", "--model", "multitask-clip", "--rate", "0"],
            ["fleet-bench", "--model", "multitask-clip", "--shards", "0"],
            ["fleet-bench", "--model", "multitask-clip", "--scenario", "nope"],
            ["fleet-bench", "--model", "multitask-clip", "--clients", "0"],
        ):
            assert main(argv) != 0
        capsys.readouterr()

    def test_serve_bench_shards_passthrough(self, capsys):
        exit_code = main(
            [
                "serve-bench",
                "--model", "multitask-clip",
                "--tasks", "3",
                "--gpus", "8",
                "--requests", "30",
                "--unique", "5",
                "--shards", "2",
                "--rate", "15000",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "plan-service fleet replay" in output
