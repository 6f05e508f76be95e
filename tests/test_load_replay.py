"""Tests for the fleet load-replay harness (and its CLI surface)."""

import pytest

from repro.cli import main
from repro.experiments.load_replay import (
    LoadReplayError,
    LoadReplayResult,
    fleet_request_stream,
    run_load_replay,
)
from repro.experiments.workloads import clip_workload
from repro.obs import (
    TelemetryJournal,
    attribution_report,
    reconstruct_requests,
    validate_journal,
)
from repro.obs.slo import SloTracker
from repro.service import RESPONSE_SERVED


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

    def test_rejects_an_empty_stream(self, tiny_tasks):
        with pytest.raises(LoadReplayError):
            fleet_request_stream(tiny_tasks, 0, num_unique=3)

    def test_deterministic_per_seed(self, tiny_tasks):
        def draw(seed):
            stream, _ = fleet_request_stream(tiny_tasks, 30, num_unique=3, seed=seed)
            return [tuple(t.name for t in w) for w in stream]

        assert draw(1) == draw(1)
        assert draw(1) != draw(2)

    def test_unique_count_is_clamped(self, tiny_tasks):
        # At most one unique per request and per contiguous window, at least 1.
        assert fleet_request_stream(tiny_tasks, 2, num_unique=3)[1] == 2
        assert fleet_request_stream(tiny_tasks, 10, num_unique=9)[1] == 3
        assert fleet_request_stream(tiny_tasks, 10, num_unique=0)[1] == 1

    def test_every_unique_window_is_requested(self, tiny_tasks):
        stream, unique = fleet_request_stream(tiny_tasks, 12, num_unique=3, seed=4)
        windows = {tuple(t.name for t in w) for w in stream}
        names = [t.name for t in tiny_tasks]
        assert len(windows) == unique == 3
        # Each unique workload is a contiguous window of the task list.
        for window in windows:
            start = names.index(window[0])
            assert list(window) == names[start : start + len(window)]

    def test_a_single_unique_is_the_full_workload(self, tiny_tasks):
        stream, unique = fleet_request_stream(tiny_tasks, 5, num_unique=1)
        assert unique == 1
        assert all(w == tuple(tiny_tasks) for w in stream)


class TestRunLoadReplay:
    def test_small_campaign_verifies_every_payload(self):
        slo = SloTracker()
        result = run_load_replay(
            clip_workload(4, 8),
            num_requests=60,
            num_unique=8,
            num_clients=2,
            seed=5,
            slo=slo,
        )
        assert result.num_requests == 60
        assert result.failed_requests == 0
        assert result.payload_match_rate == 1.0
        assert slo.report().count == 60

    def test_journal_closes_every_live_request(self):
        journal = TelemetryJournal()
        result = run_load_replay(
            clip_workload(3, 8),
            num_requests=30,
            num_unique=5,
            num_clients=2,
            seed=2,
            journal=journal,
        )
        lifecycles = reconstruct_requests(journal.events())
        assert len(lifecycles) == result.num_requests == 30
        assert all(life.complete for life in lifecycles.values())
        assert {life.outcome for life in lifecycles.values()} == {RESPONSE_SERVED}
        report = attribution_report(journal.events())
        assert (report["complete"], report["orphan_events"]) == (30, 0)

    def test_rows_report_the_payload_audit(self):
        result = run_load_replay(
            clip_workload(2, 8), num_requests=12, num_unique=3, num_clients=1
        )
        rows = dict(result.as_rows())
        assert rows["requests"] == "12 (3 unique)"
        assert rows["payload match"] == "3/3"
        assert rows["failed requests"] == "0"

    def test_an_empty_audit_matches_nothing(self):
        result = LoadReplayResult(
            num_requests=0,
            num_unique=0,
            num_clients=1,
            wall_seconds=0.0,
            real_rps=0.0,
            failed_requests=0,
            payload_matches=0,
            payload_mismatches=0,
            reference_solve_ms=0.0,
        )
        assert result.payload_match_rate == 0.0


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
                "--slo",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "plan-service fleet replay" in output
        assert "payload match" in output

    def test_fleet_bench_slo_counts_only_live_requests(self, capsys):
        exit_code = main(
            [
                "fleet-bench",
                "--model", "multitask-clip",
                "--tasks", "3",
                "--gpus", "8",
                "--requests", "40",
                "--unique", "6",
                "--slo",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        (global_row,) = [
            line
            for line in output.splitlines()
            if line.startswith(SloTracker.GLOBAL_SCOPE)
        ]
        assert global_row.split()[1] == "40"

    def test_fleet_bench_journal_validates(self, capsys, tmp_path):
        path = tmp_path / "fleet.jsonl"
        exit_code = main(
            [
                "fleet-bench",
                "--model", "multitask-clip",
                "--tasks", "3",
                "--gpus", "8",
                "--requests", "24",
                "--unique", "4",
                "--journal", str(path),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "24/24 lifecycles complete" in output
        assert validate_journal(path) > 24

    def test_fleet_bench_rejects_bad_arguments(self, capsys):
        for argv in (
            ["fleet-bench", "--model", "multitask-clip", "--requests", "0"],
            ["fleet-bench", "--model", "multitask-clip", "--unique", "0"],
            ["fleet-bench", "--model", "multitask-clip", "--clients", "0"],
        ):
            assert main(argv) != 0
        capsys.readouterr()
