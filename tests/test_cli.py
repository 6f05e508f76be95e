"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--model", "bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["compare", "--model", "multitask-clip"])
        assert args.gpus == 16
        assert args.tasks is None


class TestCompareCommand:
    def test_prints_comparison_table(self, capsys):
        exit_code = main(
            [
                "compare",
                "--model", "multitask-clip",
                "--tasks", "2",
                "--gpus", "8",
                "--systems", "spindle", "deepspeed",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "spindle" in output
        assert "deepspeed" in output
        assert "speedup vs deepspeed" in output


class TestPlanCommand:
    def test_prints_plan_table(self, capsys):
        exit_code = main(
            ["plan", "--model", "multitask-clip", "--tasks", "2", "--gpus", "8"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "wavefront execution plan" in output
        assert "MetaOps" in output

    def test_writes_plan_json(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        exit_code = main(
            [
                "plan",
                "--model", "multitask-clip",
                "--tasks", "2",
                "--gpus", "8",
                "--output", str(path),
            ]
        )
        assert exit_code == 0
        document = json.loads(path.read_text())
        assert document["format_version"] == 1
        assert document["waves"]
        assert str(path) in capsys.readouterr().out

    def test_model_size_forwarded(self, capsys):
        exit_code = main(
            ["plan", "--model", "qwen-val", "--tasks", "1", "--gpus", "8",
             "--model-size", "10b"]
        )
        assert exit_code == 0


class TestScalingCommand:
    def test_prints_scaling_table(self, capsys):
        exit_code = main(
            ["scaling", "--model", "multitask-clip", "--tasks", "2", "--gpus", "8"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "resource scalability" in output
        assert "sigma(8)" in output

    def test_device_counts_derived_from_cluster_size(self, capsys):
        exit_code = main(
            ["scaling", "--model", "multitask-clip", "--tasks", "2", "--gpus", "16"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "sigma(16)" in output
        assert "sigma(32)" not in output


class TestServeBenchCommand:
    def test_reports_throughput_and_hit_rate(self, capsys):
        exit_code = main(
            [
                "serve-bench",
                "--model", "multitask-clip",
                "--tasks", "2",
                "--gpus", "8",
                "--requests", "8",
                "--unique", "2",
                "--workers", "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "plan service throughput" in output
        assert "cache hit rate" in output
        assert "speedup" in output


class TestElasticCommand:
    ARGS = [
        "elastic",
        "--model", "multitask-clip",
        "--tasks", "2",
        "--gpus", "8",
        "--iterations", "60",
        "--events", "2",
        "--seed", "4",
    ]

    def test_prints_events_and_summary(self, capsys):
        exit_code = main(self.ARGS)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "elastic events" in output
        assert "cumulative slowdown" in output
        assert "device_failure" in output

    def test_json_report_is_seed_deterministic(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        document = json.loads(first)
        assert document["replan_count"] >= 1
        assert document["total_iterations"] == 60
        assert "replan_measured" not in first  # wall-clock stays out-of-band

    def test_json_report_is_the_unified_report_of_a_fixed_task_set(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["task_set_changes"] == 0
        assert document["events"]
        tasks = {tuple(event["active_tasks"]) for event in document["events"]}
        assert len(tasks) == 1 and len(tasks.pop()) == 2
        for event in document["events"]:
            assert event["workload_events"] == []
            assert event["cluster_events"]
            assert not event["task_set_changed"]

    def test_scenarios_and_policies_run(self, capsys):
        for scenario in ("flash-crowd", "hetero-expand", "rolling-stragglers"):
            exit_code = main(
                self.ARGS + ["--scenario", scenario, "--policy", "debounced"]
            )
            assert exit_code == 0, scenario
        outage = [arg if arg != "8" else "16" for arg in self.ARGS]
        assert main(outage + ["--scenario", "island-outage"]) == 0
        capsys.readouterr()

    def test_island_outage_needs_two_nodes(self, capsys):
        assert main(self.ARGS + ["--scenario", "island-outage"]) == 1
        capsys.readouterr()

    def test_writes_report_file(self, tmp_path, capsys):
        path = tmp_path / "elastic.json"
        exit_code = main(self.ARGS + ["--output", str(path)])
        capsys.readouterr()
        assert exit_code == 0
        document = json.loads(path.read_text())
        assert document["scenario"] == "random-failures-seed4"

    def test_invalid_arguments_fail_cleanly(self, capsys):
        assert main(self.ARGS[:-2] + ["--iterations", "1"]) == 1
        assert main(self.ARGS + ["--events", "0"]) == 1
        capsys.readouterr()


class TestTraceCommand:
    ARGS = ["trace", "--model", "multitask-clip", "--tasks", "2", "--gpus", "8"]

    def test_writes_a_valid_chrome_trace(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        path = tmp_path / "trace.json"
        exit_code = main(self.ARGS + ["--out", str(path)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "trace written to" in output
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) > 0
        assert document["otherData"]["generator"] == "repro.obs"

    def test_trace_covers_planner_service_and_simulator(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(self.ARGS + ["--out", str(path)]) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        names = {
            e["name"] for e in document["traceEvents"] if e.get("ph") == "X"
        }
        assert "planner.plan" in names
        assert "planner.wavefront_scheduling" in names
        assert "service.submit" in names
        assert "service.solve" in names
        assert "simulator.wave" in names
        counters = {
            e["name"] for e in document["traceEvents"] if e.get("ph") == "C"
        }
        assert "cluster.utilization" in counters
        cache = document["otherData"]["metrics"]["counters"]
        assert cache.get("service.cache{outcome=miss}") == 1.0

    def test_tracing_disabled_again_after_capture(self, tmp_path, capsys):
        from repro.obs import get_tracer

        assert not get_tracer().enabled
        assert main(self.ARGS + ["--out", str(tmp_path / "t.json")]) == 0
        capsys.readouterr()
        assert not get_tracer().enabled

    def test_invalid_workers_fail_cleanly(self, tmp_path, capsys):
        exit_code = main(
            self.ARGS + ["--out", str(tmp_path / "t.json"), "--workers", "0"]
        )
        capsys.readouterr()
        assert exit_code == 1


class TestObsReportCommand:
    def test_report_from_captured_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(
            ["trace", "--model", "multitask-clip", "--tasks", "2",
             "--gpus", "8", "--out", str(path)]
        ) == 0
        capsys.readouterr()
        exit_code = main(["obs", "report", "--input", str(path)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "planner.plan" in output
        assert "[sim:gpu0]" in output
        assert "ms" in output

    def test_live_report_renders_tree_and_metrics(self, capsys):
        exit_code = main(
            ["obs", "report", "--model", "multitask-clip", "--tasks", "2",
             "--gpus", "8"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "planner.plan" in output
        assert "histograms:" in output
        assert "planner.solve_seconds{stage=" in output

    def test_missing_input_file_fails_cleanly(self, capsys):
        assert main(["obs", "report", "--input", "/nonexistent/trace.json"]) == 1
        capsys.readouterr()

    def test_invalid_trace_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
        assert main(["obs", "report", "--input", str(bad)]) == 1
        not_json = tmp_path / "not.json"
        not_json.write_text("not json at all")
        assert main(["obs", "report", "--input", str(not_json)]) == 1
        capsys.readouterr()

    def test_needs_input_or_workload(self, capsys):
        assert main(["obs", "report"]) == 1
        capsys.readouterr()
