"""The three workloads: set-up, one timed closed-loop pass, output checks.

An op is one call the user waits on: a plan request (serve-hot), a plan
request plus one simulated iteration of the returned plan (plan-cold), or
one scenario replay (elastic-replay).  Each pass replays a fixed seeded op
sequence whose length is set by ``--seconds`` at a nominal rate, so runs of
one seed do the same work however fast the program is.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.topology import make_cluster
from repro.core.planner import ExecutionPlanner
from repro.core.serialization import plan_to_dict
from repro.elastic import SlowdownThresholdPolicy
from repro.obs.slo import SloTracker
from repro.obs.telemetry import TelemetryJournal
from repro.runtime.engine import RuntimeEngine
from repro.service.fingerprint import fingerprint_workload
from repro.service.fleet import PlanServiceFleet
from repro.service.resilience import RESPONSE_SERVED
from repro.unified import UnifiedRunner

from perfbench import inputs
from perfbench.layers import (
    SpanLog,
    instrument_cache,
    instrument_fleet,
    instrument_planner,
    instrument_program,
)

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical_plan(plan) -> str:
    """The plan document minus the wall-clock ``planning_report``."""
    document = plan_to_dict(plan)
    document.pop("planning_report", None)
    return json.dumps(document, sort_keys=True)


@dataclass
class Pass:
    """One timed pass: per-op latency and what each op returned."""

    latencies: list[float]
    #: Wall seconds of the timed phase, client-side request building excluded.
    wall: float
    outputs: list[Any]
    #: Op index -> why it failed (raised or resolved other than served).
    failures: dict[int, str] = field(default_factory=dict)
    peak_rss_mb: float = 0.0


@dataclass
class Checked:
    """Output checks of one pass, run after its timed phase."""

    failures: dict[int, str]
    sim_iteration_ms: float
    #: What was checked, for the printed table.
    notes: list[str] = field(default_factory=list)


class Workload:
    name = ""
    clients = 1
    #: Ops per ``--seconds`` second, calibrated on a 2-core x86 box so the op
    #: loop, client-side request building included, runs about that long.
    nominal_ops_per_second = 1.0
    #: Enough ops for a tail percentile with ten ops beyond it.
    min_ops = 11

    def num_ops(self, seconds: float) -> int:
        return max(self.min_ops, math.ceil(seconds * self.nominal_ops_per_second))

    def setup(self, seed: int, num_ops: int, log: SpanLog | None):
        raise NotImplementedError

    def op(self, state, index: int):
        """Run op ``index``; returns its output, raises on failure."""
        raise NotImplementedError

    def failure(self, output) -> str | None:
        """Why ``output`` is not a success (None when it is)."""
        return None

    def responses(self, outputs: list) -> list:
        """The fleet's :class:`PlanResponse` of every op that returned."""
        return []

    def check(self, state, timed: Pass) -> Checked:
        raise NotImplementedError

    def close(self, state) -> None:
        pass

    def run_ops(self, state, log: SpanLog | None) -> Pass:
        """The timed phase: ``clients`` closed-loop threads share the ops."""
        count = len(state.ops)
        latencies = [0.0] * count
        outputs: list[Any] = [None] * count
        failures: dict[int, str] = {}
        excluded = [0.0] * self.clients
        cursor = iter(range(count))
        clock = time.perf_counter

        def client(ordinal: int) -> None:
            for index in cursor:
                before = clock()
                self.prepare(state, index)
                excluded[ordinal] += clock() - before
                if log is not None:
                    log.enter_op(index)
                start = clock()
                try:
                    output = self.op(state, index)
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    output, reason = None, f"raised {exc!r}"
                else:
                    reason = self.failure(output)
                end = clock()
                if log is not None:
                    log.exit_op(start, end)
                latencies[index] = end - start
                outputs[index] = output
                if reason is not None:
                    failures[index] = reason

        begin = clock()
        if self.clients == 1:
            client(0)
        else:
            threads = [
                threading.Thread(target=client, args=(ordinal,), name=f"client-{ordinal}")
                for ordinal in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall = clock() - begin - max(excluded)
        return Pass(latencies, wall, outputs, failures, peak_rss_mb())

    def prepare(self, state, index: int) -> None:
        """Client-side work before op ``index`` that the op clock excludes."""


def _attach_fleet(cluster, log: SpanLog | None) -> PlanServiceFleet:
    """A fleet at its defaults with a journal and an SLO tracker attached."""
    if log is None:
        factory = lambda: ExecutionPlanner(cluster)  # noqa: E731
    else:
        factory = lambda: instrument_planner(log, ExecutionPlanner(cluster))  # noqa: E731
    fleet = PlanServiceFleet(factory, journal=TelemetryJournal(), slo=SloTracker())
    if log is not None:
        instrument_fleet(log, fleet)
    return fleet


def _response_failure(response) -> str | None:
    if response.outcome != RESPONSE_SERVED or response.plan is None:
        return f"resolved {response.outcome}: {response.error}"
    return None


# ------------------------------------------------------------------ serve-hot
@dataclass
class ServeHotState:
    inputs: inputs.ServeHotInputs
    cluster: Any
    windows: list[tuple]
    fleet: PlanServiceFleet
    ops: tuple
    fresh: dict[int, tuple] = field(default_factory=dict)


class ServeHot(Workload):
    """One client; hits on 48 warmed windows, 10% of them fresh objects."""

    name = "serve-hot"
    nominal_ops_per_second = 2900.0

    def setup(self, seed, num_ops, log):
        generated = inputs.serve_hot_inputs(seed, num_ops)
        cluster = make_cluster(inputs.SERVE_HOT_GPUS)
        interned = dict(
            zip(
                (spec.name for spec in inputs.CLIP_TASKS),
                inputs.build_tasks(inputs.CLIP, [s.name for s in inputs.CLIP_TASKS]),
            )
        )
        windows = [tuple(interned[name] for name in window) for window in generated.windows]
        fleet = _attach_fleet(cluster, log)
        for window in windows:
            response = fleet.request(window)
            if response.outcome != RESPONSE_SERVED:
                fleet.close()
                raise RuntimeError(f"warm-up request resolved {response.outcome}")
        return ServeHotState(generated, cluster, windows, fleet, generated.ops)

    def prepare(self, state, index):
        rank, fresh = state.ops[index]
        if fresh:
            state.fresh[index] = inputs.build_tasks(inputs.CLIP, state.inputs.windows[rank])
            # Collect the young objects the build left here, off the clock,
            # so the op pays only for collections its own allocations cause.
            gc.collect(0)

    def op(self, state, index):
        rank, fresh = state.ops[index]
        workload = state.fresh.pop(index) if fresh else state.windows[rank]
        return state.fleet.request(workload)

    def failure(self, output):
        return _response_failure(output)

    def responses(self, outputs):
        return [output for output in outputs if output is not None]

    def check(self, state, timed):
        reference = ExecutionPlanner(state.cluster)
        config = reference.config_signature()
        expected = [
            fingerprint_workload(window, state.cluster, config) for window in state.windows
        ]
        failures: dict[int, str] = {}
        # fingerprint -> id(plan) -> (plan, ops that were served it)
        served: dict[str, dict[int, tuple[Any, list[int]]]] = {}
        for index, response in enumerate(timed.outputs):
            if index in timed.failures:
                continue
            rank = state.ops[index][0]
            if response.fingerprint != expected[rank]:
                failures[index] = "fingerprint differs from the request's"
                continue
            plans = served.setdefault(response.fingerprint, {})
            plans.setdefault(id(response.plan), (response.plan, []))[1].append(index)
        # Mean over served ops of the simulated iteration time of their plan.
        total_ms = 0.0
        ops_served = 0
        for plans in served.values():
            first_plan, first_ops = next(iter(plans.values()))
            window = state.windows[state.ops[first_ops[0]][0]]
            wanted = canonical_plan(reference.plan(window))
            iteration_ms = RuntimeEngine(first_plan).run_iteration().iteration_time * 1e3
            for plan, indices in plans.values():
                if canonical_plan(plan) != wanted:
                    failures.update(
                        (i, "served plan differs from the reference solve") for i in indices
                    )
                total_ms += iteration_ms * len(indices)
                ops_served += len(indices)
        return Checked(
            failures,
            total_ms / ops_served if ops_served else 0.0,
            [f"every op's fingerprint checked; {len(served)} distinct plans re-solved"],
        )

    def close(self, state):
        state.fleet.close()


# ------------------------------------------------------------------ plan-cold
@dataclass
class PlanColdState:
    seed: int
    requests: list[inputs.ColdRequest]
    clusters: dict[int, Any]
    fleets: dict[int, PlanServiceFleet]
    ops: list[tuple]


class PlanCold(Workload):
    """Two clients; every request a distinct fingerprint, solved and simulated."""

    name = "plan-cold"
    clients = 2
    nominal_ops_per_second = 4.0
    #: Ops re-solved by an uncached reference planner: 6 at 1024 GPUs, 2 at
    #: 4096, drawn by the seed.  A reference solve costs as much as the op.
    check_sample = {1024: 6, 4096: 2}

    def num_ops(self, seconds):
        block = inputs.PLAN_COLD_BLOCK_SIZE
        return block * math.ceil(super().num_ops(seconds) / block)

    def setup(self, seed, num_ops, log):
        requests = inputs.plan_cold_requests(seed, num_ops)
        clusters = {gpus: make_cluster(gpus) for gpus in inputs.PLAN_COLD_GPUS}
        fleets = {gpus: _attach_fleet(cluster, log) for gpus, cluster in clusters.items()}
        ops = [request.build() for request in requests]
        return PlanColdState(seed, requests, clusters, fleets, ops)

    def op(self, state, index):
        response = state.fleets[state.requests[index].gpus].request(state.ops[index])
        if response.plan is None:
            return response, None
        return response, RuntimeEngine(response.plan).run_iteration().iteration_time

    def failure(self, output):
        return _response_failure(output[0])

    def responses(self, outputs):
        return [output[0] for output in outputs if output is not None]

    def check(self, state, timed):
        failures: dict[int, str] = {}
        references = {
            gpus: ExecutionPlanner(cluster) for gpus, cluster in state.clusters.items()
        }
        for index, output in enumerate(timed.outputs):
            if index in timed.failures:
                continue
            reference = references[state.requests[index].gpus]
            expected = fingerprint_workload(
                state.ops[index], reference.cluster, reference.config_signature()
            )
            if output[0].fingerprint != expected:
                failures[index] = "fingerprint differs from the request's"
        rng = random.Random(f"plan-cold-check/{state.seed}")
        sample: list[int] = []
        for gpus, size in self.check_sample.items():
            candidates = [i for i, r in enumerate(state.requests) if r.gpus == gpus]
            sample.extend(rng.sample(candidates, min(size, len(candidates))))
        for index in sorted(sample):
            if index in timed.failures or index in failures:
                continue
            request = state.requests[index]
            served = canonical_plan(timed.outputs[index][0].plan)
            if served != canonical_plan(references[request.gpus].plan(request.build())):
                failures[index] = "served plan differs from the reference solve"
        times = [out[1] for out in timed.outputs if out is not None and out[1] is not None]
        return Checked(
            failures,
            sum(times) / len(times) * 1e3 if times else 0.0,
            [
                f"every op's fingerprint checked; {len(sample)} ops re-solved "
                "(seeded sample)"
            ],
        )

    def close(self, state):
        for fleet in state.fleets.values():
            fleet.close()


# ------------------------------------------------------------- elastic-replay
@dataclass
class ElasticState:
    seed: int
    ops: list
    log: SpanLog | None


class ElasticReplay(Workload):
    """One client replaying seeded unified scenarios through UnifiedRunner."""

    name = "elastic-replay"
    nominal_ops_per_second = 1.2
    #: Scenarios replayed again with ``incremental=False`` as the reference.
    check_sample = 3

    def setup(self, seed, num_ops, log):
        return ElasticState(seed, [inputs.elastic_scenario(seed, i) for i in range(num_ops)], log)

    def _runner(self, scenario, **kwargs) -> UnifiedRunner:
        return UnifiedRunner(
            scenario,
            policy=SlowdownThresholdPolicy(inputs.ELASTIC_SLOWDOWN_THRESHOLD),
            **kwargs,
        )

    def op(self, state, index):
        log = state.log
        if log is None:
            return self._runner(state.ops[index]).run()
        runner = self._runner(
            state.ops[index],
            planner_factory=lambda cluster: instrument_planner(log, ExecutionPlanner(cluster)),
        )
        instrument_cache(log, runner.plan_cache)
        log.patch(runner, "run", "runner")
        return runner.run()

    def failure(self, output):
        covered = sum(segment.num_iterations for segment in output.segments)
        if covered != output.total_iterations:
            return f"segments cover {covered} of {output.total_iterations} iterations"
        return None

    def check(self, state, timed):
        failures: dict[int, str] = {}
        rng = random.Random(f"elastic-replay-check/{state.seed}")
        sample = rng.sample(range(len(state.ops)), min(self.check_sample, len(state.ops)))
        for index in sorted(sample):
            if index in timed.failures:
                continue
            served = json.dumps(timed.outputs[index].to_document(), sort_keys=True)
            reference = self._runner(state.ops[index], incremental=False).run()
            if served != json.dumps(reference.to_document(), sort_keys=True):
                failures[index] = "report differs from the incremental=False reference"
        results = [out for out in timed.outputs if out is not None]
        seconds = sum(result.total_seconds for result in results)
        iterations = sum(result.total_iterations for result in results)
        return Checked(
            failures,
            seconds / iterations * 1e3 if iterations else 0.0,
            [f"{len(sample)} scenarios replayed with incremental=False (seeded sample)"],
        )


WORKLOADS = {workload.name: workload for workload in (ServeHot(), PlanCold(), ElasticReplay())}


def timed_setup(workload: Workload, seed: int, num_ops: int, log: SpanLog | None):
    start = time.perf_counter()
    state = workload.setup(seed, num_ops, log)
    return state, time.perf_counter() - start


def traced_pass(workload: Workload, seed: int, num_ops: int):
    """Set up and run one pass with every layer's entry points wrapped."""
    log = SpanLog()
    instrument_program(log)
    try:
        state, _ = timed_setup(workload, seed, num_ops, log)
        try:
            timed = workload.run_ops(state, log)
            log.recording = False
            checked = workload.check(state, timed)
        finally:
            workload.close(state)
    finally:
        log.restore()
    return log, timed, checked
