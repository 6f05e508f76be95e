"""Command-line interface for the Spindle reproduction.

Six subcommand families cover the common workflows:

``repro plan``
    Run the execution planner on a registered workload and print (or save) the
    wavefront execution plan.

``repro compare``
    Run Spindle and the baseline systems on a workload and print the Fig.-8
    style comparison table.

``repro scaling``
    Print the scaling curves (Fig. 4) of a workload's MetaOps.

``repro serve-bench``
    Replay a synthetic planning-request stream against the caching plan
    service and report its throughput against the uncached planner.

``repro elastic``
    Replay a seeded elastic-cluster scenario (random failures, island outage,
    flash-crowd expansion, rolling stragglers) against a workload, replanning
    per policy, and report per-event replan/migration overheads plus the
    cumulative slowdown versus the no-failure run.  Identical seeds produce
    byte-identical reports.

``repro bench list|run|compare``
    Enumerate the registered benchmark suite, run a (tag-filtered) subset
    emitting machine-readable ``BENCH_*.json`` results, and diff result sets
    against a committed baseline with per-metric regression gating.

``repro trace``
    Run a workload through the plan service and the simulated runtime with
    span tracing enabled, and write a Chrome ``trace_event`` JSON (openable
    in Perfetto / ``chrome://tracing``) containing the planner-stage,
    service-lifecycle and simulator-wave spans plus the simulated
    utilization timeline as counter tracks.  The document is validated
    against the trace schema before it is written.

``repro obs report``
    Render the span tree of a previously captured trace (``--input``), or
    run a workload live and print its span tree and metrics-registry delta.

``repro obs journal``
    Inspect a request-scoped telemetry journal (JSONL, written by
    ``serve-bench --journal``): per-request lifecycle table plus the
    attribution census, one request's full event history (``--request``),
    or a per-tenant slice (``--tenant``).

``repro obs slo``
    Fold a telemetry journal's resolved requests into the per-tenant SLO
    table — availability, shed/degraded/error rates and error-budget burn
    against a declared availability target — or emit the Prometheus-style
    text exposition (``--prometheus``).

``repro unified``
    Replay a composed scenario — workload events (task arrival, departure,
    phase change) and cluster events (failure, join, straggler) on one
    timeline — through the unified event-driven runtime, replanning
    incrementally.  ``--mode both`` additionally runs the retained
    full-replan reference and checks the canonical reports are identical.

Examples
--------
::

    repro compare --model multitask-clip --tasks 4 --gpus 16
    repro plan --model qwen-val --tasks 3 --gpus 32 --output plan.json
    repro scaling --model ofasys --tasks 7 --gpus 32
    repro serve-bench --model multitask-clip --gpus 8 --requests 48
    repro elastic --model multitask-clip --tasks 4 --gpus 16 --scenario random-failures
    repro unified --model multitask-clip --tasks 4 --gpus 16 --scenario job-churn --mode both
    repro bench run --tag smoke --json
    repro bench compare --baseline benchmarks/baselines --fail-on-regress
    repro trace --model multitask-clip --tasks 4 --gpus 8 --out trace.json
    repro obs report --input trace.json
    repro serve-bench --model multitask-clip --gpus 8 --requests 48 \\
        --fault-profile chaos --journal telemetry.jsonl --tenants 3
    repro obs journal telemetry.jsonl --tenant tenant-0
    repro obs slo --input telemetry.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.baselines import SYSTEM_CLASSES
from repro.bench.cli import add_bench_subparsers
from repro.core.serialization import plan_to_json, save_plan
from repro.costmodel.profiler import default_profile_points
from repro.experiments.harness import (
    run_comparison,
    run_resilience_benchmark,
    run_service_benchmark,
    run_single_system,
)
from repro.experiments.reporting import format_table
from repro.experiments.workloads import WorkloadSpec
from repro.models.registry import MODEL_REGISTRY


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        required=True,
        choices=sorted(MODEL_REGISTRY),
        help="workload from the model zoo",
    )
    parser.add_argument("--tasks", type=int, default=None, help="number of tasks")
    parser.add_argument("--gpus", type=int, default=16, help="cluster size in GPUs")
    parser.add_argument(
        "--model-size",
        default=None,
        help="model size variant (qwen-val only: 10b, 30b or 70b)",
    )


def _workload_from_args(args: argparse.Namespace) -> WorkloadSpec:
    info = MODEL_REGISTRY[args.model]
    num_tasks = args.tasks if args.tasks is not None else info.max_tasks
    kwargs = {}
    if args.model_size:
        kwargs["size"] = args.model_size
    return WorkloadSpec(
        model=args.model, num_tasks=num_tasks, num_gpus=args.gpus, model_kwargs=kwargs
    )


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _cmd_plan(args: argparse.Namespace) -> int:
    workload = _workload_from_args(args)
    system, result = run_single_system(workload, "spindle")
    plan = system.last_plan
    if plan is None:
        return _fail(f"planner produced no plan for {workload.describe()}")

    print(f"workload        : {workload.describe()}")
    print(f"MetaOps         : {plan.metagraph.num_metaops} "
          f"in {plan.metagraph.num_levels} MetaLevels")
    print(f"waves           : {plan.schedule.num_waves}")
    print(f"planning time   : {system.last_planning_seconds * 1e3:.1f} ms")
    print(f"est. iteration  : {result.iteration_time * 1e3:.1f} ms "
          f"(fwd&bwd {result.breakdown.forward_backward * 1e3:.1f} ms)")

    rows = []
    for wave in plan.waves:
        for entry in wave.entries:
            metaop = plan.metagraph.metaop(entry.metaop_index)
            rows.append(
                [
                    wave.index,
                    wave.level,
                    f"{metaop.task}/{metaop.op_type}",
                    entry.layers,
                    entry.n_devices,
                    ",".join(str(d) for d in entry.devices),
                ]
            )
    print(
        format_table(
            ["wave", "level", "MetaOp", "ops", "#GPUs", "devices"],
            rows,
            title="wavefront execution plan",
        )
    )
    if args.output:
        path = save_plan(plan, args.output)
        print(f"\nplan written to {path}")
    elif args.json:
        print(plan_to_json(plan))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    workload = _workload_from_args(args)
    systems = tuple(args.systems) if args.systems else (
        "spindle", "spindle-optimus", "distmm-mt", "megatron-lm", "deepspeed"
    )
    comparison = run_comparison(workload, systems=systems)
    rows = [
        [name, f"{time_ms:.1f} ms", f"{speedup:.2f}x"]
        for name, time_ms, speedup in comparison.as_rows()
    ]
    print(
        format_table(
            ["system", "iteration time", f"speedup vs {comparison.reference}"],
            rows,
            title=workload.describe(),
        )
    )
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    workload = _workload_from_args(args)
    system, _ = run_single_system(workload, "spindle")
    plan = system.last_plan
    if plan is None:
        return _fail(f"planner produced no plan for {workload.describe()}")
    device_counts = default_profile_points(workload.num_gpus)
    rows = []
    for index, curve in plan.curves.items():
        metaop = plan.metagraph.metaop(index)
        rows.append(
            [f"{metaop.task}/{metaop.op_type}", metaop.num_operators]
            + [f"{curve.speedup(n):.2f}" for n in device_counts]
        )
    print(
        format_table(
            ["MetaOp", "L"] + [f"sigma({n})" for n in device_counts],
            rows,
            title=f"resource scalability, {workload.describe()}",
        )
    )
    return 0


#: Scenario families replayable through ``repro elastic``.
ELASTIC_SCENARIOS = (
    "random-failures",
    "island-outage",
    "flash-crowd",
    "hetero-expand",
    "rolling-stragglers",
    "gpu-stragglers",
)


def _elastic_timeline(args: argparse.Namespace, num_nodes: int, per_node: int):
    """Build the seeded event timeline of the requested scenario family."""
    from repro.cluster.device import A800_SPEC, TEST_GPU_SPEC
    from repro.elastic import (
        flash_crowd_timeline,
        gpu_straggler_timeline,
        island_outage_timeline,
        random_failure_timeline,
        rolling_straggler_timeline,
    )

    iterations = args.iterations
    if args.scenario == "random-failures":
        return random_failure_timeline(
            num_nodes=num_nodes,
            devices_per_node=per_node,
            total_iterations=iterations,
            num_failures=args.events,
            seed=args.seed,
        )
    if args.scenario == "island-outage":
        return island_outage_timeline(
            node=num_nodes - 1,
            devices_per_node=per_node,
            at_iteration=max(1, iterations // 3),
            recovery_at=max(2, 2 * iterations // 3),
        )
    if args.scenario in ("flash-crowd", "hetero-expand"):
        spec = A800_SPEC if args.scenario == "flash-crowd" else TEST_GPU_SPEC
        return flash_crowd_timeline(
            at_iteration=max(1, iterations // 3),
            num_new_nodes=max(1, args.events),
            devices_per_node=per_node,
            spec=spec,
        )
    if args.scenario == "gpu-stragglers":
        return gpu_straggler_timeline(
            num_nodes=num_nodes,
            devices_per_node=per_node,
            total_iterations=iterations,
            num_episodes=args.events,
            seed=args.seed,
            severity=args.severity,
        )
    return rolling_straggler_timeline(
        num_nodes=num_nodes,
        total_iterations=iterations,
        num_episodes=args.events,
        seed=args.seed,
        severity=args.severity,
    )


def _cmd_elastic(args: argparse.Namespace) -> int:
    import json as _json

    from repro.cluster.device import A800_SPEC
    from repro.elastic import MigrationCostModel, make_policy
    from repro.experiments.reporting import render_elastic_result
    from repro.unified import UnifiedRunner, UnifiedScenario, UnifiedTimeline

    if args.iterations <= 1:
        return _fail("--iterations must exceed 1")
    if args.events <= 0:
        return _fail("--events must be positive")
    if not 0.0 < args.severity < 1.0:
        return _fail("--severity must be in (0, 1): the remaining throughput fraction")
    if args.debounce <= 0:
        return _fail("--debounce must be positive")
    if args.threshold < 0:
        return _fail("--threshold must be non-negative")
    if args.checkpoint_interval is not None and args.checkpoint_interval <= 0:
        return _fail("--checkpoint-interval must be positive")
    per_node = min(8, args.gpus)
    if args.gpus % per_node != 0:
        return _fail(f"--gpus {args.gpus} is not a multiple of {per_node}")
    num_nodes = args.gpus // per_node
    if args.scenario == "island-outage":
        if num_nodes < 2:
            return _fail(
                "--scenario island-outage needs at least two nodes (--gpus 16+)"
            )
        if args.iterations < 3:
            return _fail("--scenario island-outage needs --iterations of at least 3")

    workload = _workload_from_args(args)
    tasks = workload.tasks()
    names = tuple(task.name for task in tasks)
    timeline = _elastic_timeline(args, num_nodes, per_node)
    scenario = UnifiedScenario(
        num_nodes=num_nodes,
        devices_per_node=per_node,
        device_spec=A800_SPEC,
        timeline=UnifiedTimeline(cluster_events=timeline),
        total_iterations=args.iterations,
        task_pool=dict(zip(names, tasks)),
        initial_tasks=names,
        name=f"{args.scenario}-seed{args.seed}",
    )
    policy = make_policy(
        args.policy, min_groups=args.debounce, threshold=args.threshold
    )
    migration_model = MigrationCostModel(
        checkpoint_interval=args.checkpoint_interval
    )
    result = UnifiedRunner(
        scenario, policy=policy, migration_model=migration_model
    ).run()

    document = result.to_document()
    document["workload"] = workload.describe()
    if args.json:
        print(_json.dumps(document, indent=2, sort_keys=True))
    else:
        print(f"workload : {workload.describe()}")
        print(f"scenario : {scenario.name} ({len(timeline)} events)")
        print()
        print(render_elastic_result(result))
    if args.output:
        from pathlib import Path

        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            _json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nreport written to {path}")
    return 0


#: Composed scenario families replayable through ``repro unified``.
UNIFIED_SCENARIOS = (
    "arrival-during-outage",
    "flash-crowd-degraded",
    "job-churn",
    "dynamic-phases",
)


def _unified_scenario(args: argparse.Namespace, num_nodes: int, per_node: int):
    """Build the seeded :class:`UnifiedScenario` of the requested family."""
    from repro.cluster.device import A800_SPEC
    from repro.elastic import island_outage_timeline
    from repro.unified import (
        UnifiedScenario,
        arrival_during_outage_timeline,
        flash_crowd_on_degraded_timeline,
        job_churn_timeline,
    )

    workload = _workload_from_args(args)
    iterations = args.iterations
    base_tasks = list(workload.tasks())
    initial = tuple(task.name for task in base_tasks)
    pool = {task.name: task for task in base_tasks}
    name = f"{args.scenario}-seed{args.seed}"

    if args.scenario in ("arrival-during-outage", "flash-crowd-degraded"):
        info = MODEL_REGISTRY[args.model]
        needed = len(base_tasks) + 2
        if needed > info.max_tasks:
            raise ValueError(
                f"--scenario {args.scenario} needs 2 spare pool tasks; "
                f"--tasks {len(base_tasks)} leaves none of {args.model}'s "
                f"{info.max_tasks}"
            )
        bigger = WorkloadSpec(
            model=args.model,
            num_tasks=needed,
            num_gpus=args.gpus,
            model_kwargs=workload.model_kwargs,
        )
        arriving = [t for t in bigger.tasks() if t.name not in pool]
        pool.update({task.name: task for task in arriving})
        arriving_names = [task.name for task in arriving]
        if args.scenario == "arrival-during-outage":
            if num_nodes < 2:
                raise ValueError(
                    "--scenario arrival-during-outage needs at least two "
                    "nodes (--gpus 16+)"
                )
            timeline = arrival_during_outage_timeline(
                arriving_tasks=arriving_names,
                outage_node=num_nodes - 1,
                devices_per_node=per_node,
                at_iteration=max(1, iterations // 3),
                recovery_at=max(2, 2 * iterations // 3),
            )
        else:
            timeline = flash_crowd_on_degraded_timeline(
                arriving_tasks=arriving_names,
                num_new_nodes=1,
                devices_per_node=per_node,
                spec=A800_SPEC,
                num_nodes=num_nodes,
                total_iterations=iterations,
                seed=args.seed,
            )
    elif args.scenario == "job-churn":
        # A job resubmitted in place: architecturally identical, new name and
        # weight — the fingerprint misses (weight is canonical) while the
        # plan structure matches, so incremental replanning adopts the whole
        # previous plan.  The replacement is built from the model zoo, which
        # currently supports this for multitask-clip only.
        if args.model != "multitask-clip":
            raise ValueError("--scenario job-churn requires --model multitask-clip")
        import dataclasses as _dc

        from repro.models.multitask_clip import CLIP_TASKS, build_clip_task

        spec = _dc.replace(CLIP_TASKS[1], name=f"{initial[1]}_resubmit")
        resubmitted = build_clip_task(spec)
        resubmitted.weight = 2.0
        pool[resubmitted.name] = resubmitted
        timeline = job_churn_timeline(
            initial,
            replacements=[(initial[1], resubmitted.name)],
            at_iterations=[max(1, iterations // 2)],
        )
    else:  # dynamic-phases
        from repro.dynamic import DynamicWorkloadSchedule

        third = max(1, iterations // 3)
        schedule = DynamicWorkloadSchedule.from_tasks(
            base_tasks,
            phases=[
                (initial, third),
                (initial[:-1] or initial, third),
                (initial, max(1, iterations - 2 * third)),
            ],
        )
        cluster_events = None
        if num_nodes >= 2:
            cluster_events = island_outage_timeline(
                node=num_nodes - 1,
                devices_per_node=per_node,
                at_iteration=third + third // 2,
            )
        return workload, UnifiedScenario.from_dynamic(
            schedule,
            num_nodes=num_nodes,
            devices_per_node=per_node,
            device_spec=A800_SPEC,
            cluster_events=cluster_events,
            name=name,
        )

    return workload, UnifiedScenario(
        num_nodes=num_nodes,
        devices_per_node=per_node,
        device_spec=A800_SPEC,
        timeline=timeline,
        total_iterations=iterations,
        task_pool=pool,
        initial_tasks=initial,
        name=name,
    )


def _cmd_unified(args: argparse.Namespace) -> int:
    import json as _json

    from repro.elastic import make_policy
    from repro.unified import UnifiedRunner

    if args.iterations <= 2:
        return _fail("--iterations must exceed 2")
    if args.debounce <= 0:
        return _fail("--debounce must be positive")
    if args.threshold < 0:
        return _fail("--threshold must be non-negative")
    if args.tasks is not None and args.tasks < 2:
        return _fail("--tasks must be at least 2 (churn and phases need a pool)")
    per_node = min(8, args.gpus)
    if args.gpus % per_node != 0:
        return _fail(f"--gpus {args.gpus} is not a multiple of {per_node}")
    num_nodes = args.gpus // per_node
    try:
        workload, scenario = _unified_scenario(args, num_nodes, per_node)
    except ValueError as exc:
        return _fail(str(exc))
    policy = make_policy(
        args.policy, min_groups=args.debounce, threshold=args.threshold
    )

    incremental = args.mode != "full"
    result = UnifiedRunner(scenario, policy=policy, incremental=incremental).run()
    document = result.to_document()
    document["workload"] = workload.describe()

    if args.mode == "both":
        reference = UnifiedRunner(scenario, policy=policy, incremental=False).run()
        if _json.dumps(reference.to_document(), sort_keys=True) != _json.dumps(
            result.to_document(), sort_keys=True
        ):  # pragma: no cover - equivalence is pinned by the test suite
            return _fail(
                "incremental and full-replan reports differ — this is a bug; "
                "please file it with the exact command line"
            )

    if args.json:
        print(_json.dumps(document, indent=2, sort_keys=True))
    else:
        print(f"workload   : {workload.describe()}")
        print(f"scenario   : {scenario.name} ({len(scenario.timeline)} events)")
        print(f"mode       : {result.mode}"
              + (" (verified == full replan)" if args.mode == "both" else ""))
        print(f"policy     : {result.policy}")
        print()
        print(f"baseline   : {result.baseline_seconds:.1f} s "
              f"({result.baseline_iteration_seconds * 1e3:.1f} ms/iter)")
        print(f"training   : {result.training_seconds:.1f} s")
        print(f"overhead   : {result.overhead_seconds:.2f} s "
              f"(replan {result.replan_charged_seconds:.2f} s, "
              f"migration {result.migration_seconds:.2f} s)")
        print(f"slowdown   : {result.cumulative_slowdown:.3f}x vs no-event run")
        print(f"replans    : {result.replan_count} "
              f"({result.cache_hits} cache hits, "
              f"{result.task_set_changes} task-set changes)")
        print(f"reuse      : {result.levels_reused} MetaLevel allocations adopted, "
              f"planner wall-clock {result.replan_measured_seconds * 1e3:.1f} ms "
              f"(out-of-band)")
        for outcome in result.outcomes:
            kinds = [e.kind for e in outcome.cluster_events] + [
                e.kind for e in outcome.workload_events
            ]
            action = "replan" if outcome.replanned else "stay"
            print(f"  @{outcome.iteration:>5} {'+'.join(kinds):<40} -> {action}, "
                  f"{outcome.num_devices} GPUs, "
                  f"{len(outcome.active_tasks)} tasks")
    if args.output:
        from pathlib import Path

        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            _json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nreport written to {path}")
    return 0


def _traced_run(workload, num_workers: int):
    """Run ``workload`` through the plan service + simulator under tracing.

    Returns ``(spans, iteration_result, metrics_delta)``; the pipeline is the
    shared measurement protocol of ``repro trace`` and ``repro obs report``:
    planning goes through a :class:`~repro.service.server.PlanService` (so
    the trace contains the request lifecycle and the worker-thread planner
    stages) and one simulated iteration runs on the resulting plan.
    """
    from repro.core.planner import ExecutionPlanner
    from repro.obs import get_metrics, get_tracer
    from repro.runtime.engine import RuntimeEngine
    from repro.service import PlanService

    tasks = workload.tasks()
    cluster = workload.cluster()
    tracer = get_tracer()
    tracer.clear()
    metrics = get_metrics()
    before = metrics.snapshot()
    with tracer.capture():
        with PlanService(
            ExecutionPlanner(cluster), num_workers=num_workers
        ) as service:
            plan = service.plan(list(tasks))
        result = RuntimeEngine(plan).run_iteration()
    return tracer.records(), result, metrics.snapshot().diff(before)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import TraceValidationError, chrome_trace_document, write_chrome_trace

    if args.workers <= 0:
        return _fail("--workers must be positive")
    workload = _workload_from_args(args)
    spans, result, metrics_delta = _traced_run(workload, args.workers)
    document = chrome_trace_document(
        spans,
        utilization=result.trace,
        metrics=metrics_delta,
        metadata={
            "workload": workload.describe(),
            "simulated_iteration_seconds": result.iteration_time,
        },
    )
    try:
        path = write_chrome_trace(args.out, document)
    except TraceValidationError as exc:  # pragma: no cover - exporter bug guard
        return _fail(str(exc))
    num_segments = len(result.trace.segments)
    print(f"workload         : {workload.describe()}")
    print(f"wall-clock spans : {len(spans)}")
    print(f"sim segments     : {num_segments} "
          f"(simulated iteration {result.iteration_time * 1e3:.1f} ms)")
    print(f"trace written to {path}")
    print("open it in Perfetto (https://ui.perfetto.dev) or chrome://tracing")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs import (
        TraceValidationError,
        get_metrics,
        render_span_tree,
        spans_from_chrome_trace,
        validate_chrome_trace,
    )

    if args.input:
        path = Path(args.input)
        if not path.is_file():
            return _fail(f"no such trace file: {path}")
        try:
            document = _json.loads(path.read_text(encoding="utf-8"))
        except _json.JSONDecodeError as exc:
            return _fail(f"invalid JSON in {path}: {exc}")
        try:
            validate_chrome_trace(document)
        except TraceValidationError as exc:
            return _fail(str(exc))
        print(render_span_tree(spans_from_chrome_trace(document)))
        return 0
    if args.model is None:
        return _fail("obs report needs --input TRACE.json or a workload (--model ...)")
    workload = _workload_from_args(args)
    spans, _, metrics_delta = _traced_run(workload, num_workers=2)
    print(render_span_tree(spans))
    print()
    print(get_metrics().render(metrics_delta))
    return 0


def _lifecycle_summary(lifecycle) -> dict:
    """JSON-friendly summary of one reconstructed request lifecycle."""
    return {
        "trace_id": lifecycle.trace_id,
        "tenant": lifecycle.tenant,
        "topology": lifecycle.topology,
        "fingerprint": lifecycle.fingerprint,
        "outcome": lifecycle.outcome,
        "tier": lifecycle.tier,
        "attempts": lifecycle.attempts,
        "retries": lifecycle.retries,
        "requeues": lifecycle.requeues,
        "leader": lifecycle.leader,
        "faults": list(lifecycle.faults),
        "complete": lifecycle.complete,
    }


def _load_journal(path_arg: str):
    """Read + schema-validate a journal file; returns (events, error_exit)."""
    from pathlib import Path

    from repro.obs import JournalError, TelemetryJournal

    path = Path(path_arg)
    if not path.is_file():
        return None, _fail(f"no such journal file: {path}")
    try:
        return TelemetryJournal.read(path), None
    except JournalError as exc:
        return None, _fail(str(exc))


def _cmd_obs_journal(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import attribution_report, reconstruct_requests

    events, error = _load_journal(args.path)
    if events is None:
        return error
    lifecycles = reconstruct_requests(events)

    if args.request is not None:
        lifecycle = lifecycles.get(args.request)
        if lifecycle is None:
            return _fail(
                f"no request {args.request!r} in {args.path} "
                f"({len(lifecycles)} requests journaled)"
            )
        if args.json:
            record = _lifecycle_summary(lifecycle)
            record["events"] = lifecycle.events
            print(_json.dumps(record, indent=2, sort_keys=True))
            return 0
        print(f"request     : {lifecycle.trace_id}")
        print(f"tenant      : {lifecycle.tenant or '-'}")
        print(f"topology    : {lifecycle.topology or '-'}")
        print(f"fingerprint : {lifecycle.fingerprint or '-'}")
        print(f"outcome     : {lifecycle.outcome or '?'} "
              f"(tier {lifecycle.tier or '-'})")
        print(f"attempts    : {lifecycle.attempts} "
              f"({lifecycle.retries} retries, {lifecycle.requeues} requeues)")
        if lifecycle.leader:
            print(f"coalesced   : behind leader {lifecycle.leader}")
        rows = [
            [
                str(event["seq"]),
                event["kind"],
                event.get("tier") or "",
                "" if event.get("attempt") is None else str(event["attempt"]),
                event.get("outcome") or "",
                event.get("fault") or "",
            ]
            for event in lifecycle.events
        ]
        print(
            format_table(
                ["seq", "event", "tier", "attempt", "outcome", "fault"],
                rows,
                title="event history",
            )
        )
        return 0

    selected = lifecycles
    if args.tenant is not None:
        selected = {
            trace_id: lifecycle
            for trace_id, lifecycle in lifecycles.items()
            if lifecycle.tenant == args.tenant
        }
        if not selected:
            return _fail(f"no requests for tenant {args.tenant!r} in {args.path}")
    report = attribution_report(events)
    if args.json:
        print(
            _json.dumps(
                {
                    "attribution": report,
                    "requests": [
                        _lifecycle_summary(l) for l in selected.values()
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    rows = [
        [
            lifecycle.trace_id,
            lifecycle.tenant or "-",
            lifecycle.outcome or "?",
            lifecycle.tier or "-",
            str(lifecycle.attempts),
            str(lifecycle.retries),
            ",".join(lifecycle.faults) or "-",
        ]
        for lifecycle in selected.values()
    ]
    title = f"request lifecycles ({len(selected)})"
    if args.tenant is not None:
        title += f", tenant {args.tenant}"
    print(
        format_table(
            ["trace id", "tenant", "outcome", "tier", "attempts", "retries",
             "faults"],
            rows,
            title=title,
        )
    )

    def _census(counts: dict) -> str:
        return ", ".join(f"{k} {v}" for k, v in counts.items()) or "none"

    print()
    print(f"events      : {report['events']} "
          f"({sum(report['unattributed'].values())} unattributed)")
    print(f"requests    : {report['requests']} ({report['complete']} complete, "
          f"{report['orphan_requests']} orphan)")
    print(f"outcomes    : {_census(report['outcomes'])}")
    print(f"faults      : {_census(report['faults'])}")
    print(f"retries     : {report['retries']}")
    print(f"degraded    : {_census(report['degraded_tiers'])}")
    print(f"store-scoped: {_census(report['unattributed'])}")
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    from repro.obs import SloPolicy, reconstruct_requests, slo_from_outcomes

    events, error = _load_journal(args.input)
    if events is None:
        return error
    lifecycles = reconstruct_requests(events)
    resolved = [
        (lifecycle.outcome, lifecycle.tenant)
        for lifecycle in lifecycles.values()
        if lifecycle.outcome is not None
    ]
    policy = SloPolicy(
        availability_target=args.availability_target,
        max_shed_rate=args.max_shed_rate,
        max_degraded_rate=args.max_degraded_rate,
    )
    tracker = slo_from_outcomes(resolved, policy)
    if args.prometheus:
        print(tracker.render_prometheus(), end="")
        return 0
    print(tracker.render())
    print()
    print(
        f"{len(resolved)} resolved requests from {args.input}; latency "
        "percentiles read 0 because the journal carries no wall-clock — "
        "use serve-bench --slo for live latency SLOs"
    )
    return 0


def _write_telemetry(journal, slo, journal_path) -> None:
    """Shared serve-bench epilogue: persist the journal, print the SLO table."""
    if journal is not None and journal_path is not None:
        from repro.obs import attribution_report

        path = journal.write(journal_path)
        report = attribution_report(journal.events())
        print(
            f"\ntelemetry journal : {path} ({report['events']} events, "
            f"{report['complete']}/{report['requests']} lifecycles complete)"
        )
    if slo is not None:
        print("\n" + slo.render())


def _run_fleet_campaign(
    args: argparse.Namespace,
    workload,
    *,
    scenario: str,
    num_clients: int,
    journal,
    slo,
) -> int:
    """Shared fleet-bench/serve-bench body: replay, report, gate, exit code."""
    from repro.experiments.load_replay import (
        SCENARIOS,
        LoadReplayError,
        run_load_replay,
    )

    if scenario not in SCENARIOS:
        return _fail(
            f"unknown scenario {scenario!r}; known: {', '.join(SCENARIOS)}"
        )
    if args.rate <= 0:
        return _fail("--rate must be positive")
    if args.shards <= 0:
        return _fail("--shards must be positive")
    try:
        result = run_load_replay(
            workload,
            num_requests=args.requests,
            num_unique=args.unique,
            rate=args.rate,
            scenario=scenario,
            real_shards=args.shards,
            num_clients=num_clients,
            seed=args.seed,
            journal=journal,
            slo=slo,
        )
    except LoadReplayError as exc:
        return _fail(str(exc))
    print(
        format_table(
            ["metric", "value"],
            result.as_rows(),
            title=f"plan-service fleet replay, {workload.describe()}",
        )
    )
    print(
        f"\nsimulated scaling 1->4 shards: {result.scaling_ratio(1, 4):.2f}x"
        f"   1->8 shards: {result.scaling_ratio(1, 8):.2f}x"
    )
    _write_telemetry(journal, slo, args.journal)
    if result.failed_requests:
        return _fail(
            f"{result.failed_requests} of {result.num_requests} fleet "
            "requests failed"
        )
    if result.payload_match_rate < 1.0:
        return _fail(
            f"{result.payload_mismatches} served plan payloads differ from "
            "the uncached single-planner reference"
        )
    return 0


def _cmd_fleet_bench(args: argparse.Namespace) -> int:
    if args.requests <= 0:
        return _fail("--requests must be positive")
    if args.unique <= 0:
        return _fail("--unique must be positive")
    if args.clients <= 0:
        return _fail("--clients must be positive")
    workload = _workload_from_args(args)
    journal = slo = None
    if args.journal is not None:
        from repro.obs import TelemetryJournal

        journal = TelemetryJournal()
    if args.slo:
        from repro.obs import SloTracker

        slo = SloTracker()
    return _run_fleet_campaign(
        args,
        workload,
        scenario=args.scenario,
        num_clients=args.clients,
        journal=journal,
        slo=slo,
    )


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    if args.requests <= 0:
        return _fail("--requests must be positive")
    if args.unique <= 0:
        return _fail("--unique must be positive")
    if args.workers <= 0:
        return _fail("--workers must be positive")
    if args.batch_size <= 0:
        return _fail("--batch-size must be positive")
    if args.tenants < 0:
        return _fail("--tenants must be non-negative")
    workload = _workload_from_args(args)
    journal = slo = None
    if args.journal is not None:
        from repro.obs import TelemetryJournal

        journal = TelemetryJournal()
    if args.slo or args.tenants > 0:
        from repro.obs import SloTracker

        slo = SloTracker()
    if args.shards:
        # --shards N routes the whole run through the fleet replay protocol.
        return _run_fleet_campaign(
            args,
            workload,
            scenario="flash-crowd",
            num_clients=4,
            journal=journal,
            slo=slo,
        )
    if args.fault_profile is not None:
        from repro.faults import FAULT_PROFILES

        if args.fault_profile not in FAULT_PROFILES:
            return _fail(
                f"unknown fault profile {args.fault_profile!r}; "
                f"known: {', '.join(sorted(FAULT_PROFILES))}"
            )
        chaos = run_resilience_benchmark(
            workload,
            num_requests=args.requests,
            num_unique=args.unique,
            profile=args.fault_profile,
            seed=args.fault_seed,
            num_workers=args.workers,
            max_batch_size=args.batch_size,
            journal=journal,
            slo=slo,
            num_tenants=args.tenants,
        )
        print(
            format_table(
                ["metric", "value"],
                chaos.as_rows(),
                title=f"plan service resilience, {workload.describe()}",
            )
        )
        print("\n" + chaos.stats.render())
        _write_telemetry(journal, slo, args.journal)
        if chaos.availability < 1.0:
            return _fail(
                f"only {chaos.availability * 100:.1f}% of requests resolved "
                "with a plan under the fault campaign"
            )
        if chaos.payload_match_rate < 1.0:
            return _fail(
                f"{chaos.payload_total - chaos.payload_matches} served plans "
                "differ from the fault-free solves"
            )
        return 0
    result = run_service_benchmark(
        workload,
        num_requests=args.requests,
        num_unique=args.unique,
        num_workers=args.workers,
        max_batch_size=args.batch_size,
        seed=args.seed,
        journal=journal,
        slo=slo,
        num_tenants=args.tenants,
    )
    if result.failed_requests:
        return _fail(
            f"{result.failed_requests} of {result.num_requests} service requests failed"
        )
    print(
        format_table(
            ["metric", "value"],
            result.as_rows(),
            title=f"plan service throughput, {workload.describe()}",
        )
    )
    print("\n" + result.stats.render())
    _write_telemetry(journal, slo, args.journal)
    return 0


#: ``--help`` epilogs: every subcommand points at its handbook page.
DOCS_ARCHITECTURE = "Docs: docs/architecture.md (pipeline, packages, plan lifecycle)"
DOCS_EVENTS = "Docs: docs/events.md (event model, ordering rules, replan policies)"
DOCS_OBSERVABILITY = "Docs: docs/observability.md (spans, metrics, Perfetto workflow)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spindle reproduction: wavefront scheduling for MT MM training",
        epilog="Handbook: docs/architecture.md, docs/events.md, docs/observability.md",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    plan_parser = subparsers.add_parser(
        "plan", help="run the execution planner", epilog=DOCS_ARCHITECTURE
    )
    _add_workload_arguments(plan_parser)
    plan_parser.add_argument("--output", default=None, help="write the plan as JSON")
    plan_parser.add_argument(
        "--json", action="store_true", help="print the plan document as JSON"
    )
    plan_parser.set_defaults(func=_cmd_plan)

    compare_parser = subparsers.add_parser(
        "compare",
        help="compare Spindle with the baseline systems",
        epilog=DOCS_ARCHITECTURE,
    )
    _add_workload_arguments(compare_parser)
    compare_parser.add_argument(
        "--systems",
        nargs="+",
        choices=sorted(SYSTEM_CLASSES),
        default=None,
        help="systems to run (default: the Fig. 8 set)",
    )
    compare_parser.set_defaults(func=_cmd_compare)

    scaling_parser = subparsers.add_parser(
        "scaling",
        help="print the MetaOp scaling curves (Fig. 4)",
        epilog=DOCS_ARCHITECTURE,
    )
    _add_workload_arguments(scaling_parser)
    scaling_parser.set_defaults(func=_cmd_scaling)

    serve_parser = subparsers.add_parser(
        "serve-bench",
        help="benchmark the caching plan service against the uncached planner",
        epilog=DOCS_ARCHITECTURE,
    )
    _add_workload_arguments(serve_parser)
    serve_parser.add_argument(
        "--requests", type=int, default=48, help="length of the request stream"
    )
    serve_parser.add_argument(
        "--unique", type=int, default=4, help="distinct workloads in the stream"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=4, help="plan service worker threads"
    )
    serve_parser.add_argument(
        "--batch-size", type=int, default=8, help="max requests drained per worker wake-up"
    )
    serve_parser.add_argument(
        "--seed", type=int, default=0, help="seed of the request stream shuffle"
    )
    serve_parser.add_argument(
        "--fault-profile",
        default=None,
        help="run the resilience protocol instead, injecting faults from this "
        "named profile (none, mild, chaos); see docs/resilience.md",
    )
    serve_parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the injected fault schedule (same seed, same faults)",
    )
    serve_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write the request-scoped telemetry journal (JSONL) to PATH; "
        "inspect it with 'repro obs journal PATH'",
    )
    serve_parser.add_argument(
        "--tenants",
        type=int,
        default=0,
        metavar="N",
        help="label request i with tenant-(i mod N) and print per-tenant "
        "SLO rollups (0 disables tenant labelling)",
    )
    serve_parser.add_argument(
        "--slo",
        action="store_true",
        help="track and print the sliding-window SLO table for the run",
    )
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run the N-shard fleet replay protocol instead of the single "
        "service (see 'repro fleet-bench' for the full knob set)",
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=20000.0,
        metavar="R",
        help="offered request rate (req/s) of the fleet replay schedule "
        "(only with --shards)",
    )
    serve_parser.set_defaults(func=_cmd_serve_bench)

    fleet_parser = subparsers.add_parser(
        "fleet-bench",
        help="replay a flash-crowd request stream against the sharded plan-"
        "service fleet, with a deterministic virtual-time shard sweep",
        epilog=DOCS_ARCHITECTURE,
    )
    _add_workload_arguments(fleet_parser)
    fleet_parser.add_argument(
        "--requests", type=int, default=400, help="length of the request stream"
    )
    fleet_parser.add_argument(
        "--unique", type=int, default=48, help="distinct workloads in the stream"
    )
    fleet_parser.add_argument(
        "--scenario",
        default="flash-crowd",
        help="arrival schedule shape: steady or flash-crowd",
    )
    fleet_parser.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="shard count of the live fleet driven in phase 1",
    )
    fleet_parser.add_argument(
        "--rate",
        type=float,
        default=20000.0,
        metavar="R",
        help="offered request rate (req/s) of the arrival schedule",
    )
    fleet_parser.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="closed-loop client threads driving the live fleet",
    )
    fleet_parser.add_argument(
        "--seed", type=int, default=0, help="seed of the stream and schedule"
    )
    fleet_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write the request-scoped telemetry journal (JSONL) to PATH; "
        "inspect it with 'repro obs journal PATH'",
    )
    fleet_parser.add_argument(
        "--slo",
        action="store_true",
        help="track and print the sliding-window SLO table for the run",
    )
    fleet_parser.set_defaults(func=_cmd_fleet_bench)

    elastic_parser = subparsers.add_parser(
        "elastic",
        help="replay a seeded elastic-cluster scenario with event-driven replanning",
        epilog=DOCS_EVENTS,
    )
    _add_workload_arguments(elastic_parser)
    elastic_parser.add_argument(
        "--scenario",
        choices=ELASTIC_SCENARIOS,
        default="random-failures",
        help="scenario family to replay",
    )
    elastic_parser.add_argument(
        "--iterations", type=int, default=200, help="total training iterations"
    )
    elastic_parser.add_argument(
        "--events",
        type=int,
        default=4,
        help="failures / joining nodes / straggler episodes, per scenario",
    )
    elastic_parser.add_argument(
        "--seed", type=int, default=0, help="seed of the event generator"
    )
    elastic_parser.add_argument(
        "--policy",
        choices=("immediate", "debounced", "threshold"),
        default="threshold",
        help="replan policy for non-forced events",
    )
    elastic_parser.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="slowdown threshold of the 'threshold' policy",
    )
    elastic_parser.add_argument(
        "--debounce",
        type=int,
        default=2,
        help="event groups absorbed per replan by the 'debounced' policy",
    )
    elastic_parser.add_argument(
        "--severity",
        type=float,
        default=0.5,
        help="remaining throughput fraction of straggler episodes",
    )
    elastic_parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help="iterations between checkpoints; restores re-execute the "
        "iterations since the last checkpoint (default: no lost-progress term)",
    )
    elastic_parser.add_argument(
        "--json", action="store_true", help="print the canonical report as JSON"
    )
    elastic_parser.add_argument(
        "--output", default=None, help="write the canonical JSON report to a file"
    )
    elastic_parser.set_defaults(func=_cmd_elastic)

    unified_parser = subparsers.add_parser(
        "unified",
        help="replay composed workload + cluster events through the unified "
        "runtime with incremental replanning",
        epilog=DOCS_EVENTS,
    )
    _add_workload_arguments(unified_parser)
    unified_parser.add_argument(
        "--scenario",
        choices=UNIFIED_SCENARIOS,
        default="arrival-during-outage",
        help="composed scenario family to replay",
    )
    unified_parser.add_argument(
        "--iterations", type=int, default=300, help="total training iterations"
    )
    unified_parser.add_argument(
        "--seed", type=int, default=0, help="seed of the event generators"
    )
    unified_parser.add_argument(
        "--mode",
        choices=("incremental", "full", "both"),
        default="incremental",
        help="planner path: incremental replanning, the full-replan "
        "reference, or both with an equivalence check",
    )
    unified_parser.add_argument(
        "--policy",
        choices=("immediate", "debounced", "threshold"),
        default="threshold",
        help="replan policy for non-forced event groups",
    )
    unified_parser.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="slowdown threshold of the 'threshold' policy",
    )
    unified_parser.add_argument(
        "--debounce",
        type=int,
        default=2,
        help="event groups absorbed per replan by the 'debounced' policy",
    )
    unified_parser.add_argument(
        "--json", action="store_true", help="print the canonical report as JSON"
    )
    unified_parser.add_argument(
        "--output", default=None, help="write the canonical JSON report to a file"
    )
    unified_parser.set_defaults(func=_cmd_unified)

    trace_parser = subparsers.add_parser(
        "trace",
        help="capture a Chrome trace_event JSON of planning + simulated execution",
        epilog=DOCS_OBSERVABILITY,
    )
    _add_workload_arguments(trace_parser)
    trace_parser.add_argument(
        "--out", default="trace.json", help="path of the Chrome trace JSON to write"
    )
    trace_parser.add_argument(
        "--workers", type=int, default=2, help="plan service worker threads"
    )
    trace_parser.set_defaults(func=_cmd_trace)

    obs_parser = subparsers.add_parser(
        "obs",
        help="observability reports over spans and the metrics registry",
        epilog=DOCS_OBSERVABILITY,
    )
    obs_subparsers = obs_parser.add_subparsers(dest="obs_command", required=True)
    report_parser = obs_subparsers.add_parser(
        "report",
        help="render the span tree of a captured trace, or trace a workload live",
        epilog=DOCS_OBSERVABILITY,
    )
    report_parser.add_argument(
        "--input",
        default=None,
        help="a trace.json captured by 'repro trace'; omitted, a workload runs live",
    )
    report_parser.add_argument(
        "--model",
        choices=sorted(MODEL_REGISTRY),
        default=None,
        help="workload from the model zoo (live mode)",
    )
    report_parser.add_argument("--tasks", type=int, default=None, help="number of tasks")
    report_parser.add_argument("--gpus", type=int, default=16, help="cluster size in GPUs")
    report_parser.add_argument(
        "--model-size", default=None, help="model size variant (qwen-val only)"
    )
    report_parser.set_defaults(func=_cmd_obs_report)

    journal_parser = obs_subparsers.add_parser(
        "journal",
        help="inspect a telemetry journal: lifecycles, attribution census, "
        "or one request's event history",
        epilog=DOCS_OBSERVABILITY,
    )
    journal_parser.add_argument(
        "path", help="a telemetry .jsonl written by 'repro serve-bench --journal'"
    )
    journal_parser.add_argument(
        "--request",
        default=None,
        metavar="TRACE_ID",
        help="show the full event history of one request",
    )
    journal_parser.add_argument(
        "--tenant",
        default=None,
        help="only list requests submitted under this tenant label",
    )
    journal_parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of tables"
    )
    journal_parser.set_defaults(func=_cmd_obs_journal)

    slo_parser = obs_subparsers.add_parser(
        "slo",
        help="per-tenant SLO table (availability, shed/degraded rates, "
        "error-budget burn) from a telemetry journal",
        epilog=DOCS_OBSERVABILITY,
    )
    slo_parser.add_argument(
        "--input",
        required=True,
        metavar="JOURNAL",
        help="a telemetry .jsonl written by 'repro serve-bench --journal'",
    )
    slo_parser.add_argument(
        "--availability-target",
        type=float,
        default=0.999,
        help="availability objective the burn rate is measured against",
    )
    slo_parser.add_argument(
        "--max-shed-rate",
        type=float,
        default=None,
        help="compliance ceiling on the shed fraction (default: disabled)",
    )
    slo_parser.add_argument(
        "--max-degraded-rate",
        type=float,
        default=None,
        help="compliance ceiling on the degraded fraction (default: disabled)",
    )
    slo_parser.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus-style text exposition instead of the table",
    )
    slo_parser.set_defaults(func=_cmd_obs_slo)

    add_bench_subparsers(subparsers)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed early (`repro obs journal ... | head`); suppress
        # the traceback and the interpreter-shutdown flush error on stdout.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
