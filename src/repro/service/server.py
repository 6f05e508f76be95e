"""Concurrent plan service: worker pool, batching, single-flight, resilience.

:class:`PlanService` turns the execution planner into a servable component.
Requests (task sets or raw computation graphs) are fingerprinted on arrival
and resolved through three paths, cheapest first:

1. **Cache hit** — the fingerprint is already in the :class:`PlanCache`; the
   returned future is resolved immediately with the cached plan.
2. **Single-flight coalescing** — an identical request is already being
   planned; the caller receives the *same* future, so N concurrent identical
   requests cost one planner run.
3. **Fresh planning** — the request is queued for the bounded worker pool.
   Workers drain the queue in batches (up to ``max_batch_size`` requests per
   wake-up) and group batch items by fingerprint, so duplicates that reach the
   queue are still planned only once.

With a :class:`~repro.service.resilience.ResiliencePolicy` the fresh-planning
path is hardened: solve attempts are bounded by per-request deadlines and
retried with seeded exponential backoff, a circuit breaker trips after
consecutive failures, bounded-queue admission control sheds excess load
explicitly, and exhausted requests walk a degradation ladder —

    fresh cache hit → retry fresh solve → reference-path solve under the
    service's own configuration → ``ServiceError``

— so every admitted request resolves in exactly one outcome (``served`` /
``degraded`` / ``shed`` / ``error``); futures never hang, including across
injected worker crashes (the pool respawns dead workers and requeues their
in-flight requests) and across :meth:`PlanService.close`.

Fault injection (:mod:`repro.faults`) threads through the same hook points
deterministically; see ``docs/resilience.md`` for the ladder, the policy
knobs and the determinism rules.

Every request closes in one place, :meth:`PlanService._resolve`: it
attaches the request's :class:`PlanResponse`, journals ``request.resolved``,
records the SLO sample, the :class:`~repro.service.stats.ServiceStats`
outcome and the registry metric, and resolves the future last.  Coalesced
followers close there too, under their own trace ID, when the leader's
future resolves — successfully or not.

Request-scoped telemetry threads through every path: each submission mints a
deterministic trace ID (:class:`~repro.obs.telemetry.TraceIdGenerator` —
fingerprint prefix + seeded counter, so same-seed serial replays mint
identical IDs), attaches it to the ``service.submit``/``service.solve``
spans, and — when a :class:`~repro.obs.telemetry.TelemetryJournal` is
configured — journals the full lifecycle: submission, cache hit /
coalescing (recording the leader's ID) / shed / enqueue, every solve
attempt and retry, injected faults, worker-crash requeues, degradation
tiers and final resolution.  Resolution events are emitted *before* the
future resolves, so a serial submitter observes a fully-ordered journal
(byte-identical across same-seed replays).  A
:class:`~repro.obs.slo.SloTracker` can ride along to fold outcomes and
latencies into per-tenant/per-topology service levels.
"""

from __future__ import annotations

import queue
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from repro.cluster.topology import ClusterTopology
from repro.core.plan import ExecutionPlan
from repro.core.planner import ExecutionPlanner, PlannerInput
from repro.core.serialization import plan_to_json
from repro.faults.injection import NULL_INJECTOR, InjectedWorkerCrash
from repro.graph.graph import ComputationGraph
from repro.obs import get_metrics, get_tracer
from repro.obs.telemetry import (
    EVENT_ATTEMPT,
    EVENT_CACHE_HIT,
    EVENT_COALESCED,
    EVENT_DEGRADED,
    EVENT_ENQUEUED,
    EVENT_REQUEUED,
    EVENT_RESOLVED,
    EVENT_RETRY,
    EVENT_SHED,
    EVENT_SUBMITTED,
    TelemetryJournal,
    TraceIdGenerator,
)
from repro.service.cache import PlanCache
from repro.service.fingerprint import fingerprint_workload
from repro.service.resilience import (
    DEGRADED_TIERS,
    RESPONSE_DEGRADED,
    RESPONSE_ERROR,
    RESPONSE_SERVED,
    RESPONSE_SHED,
    TIER_CACHE,
    TIER_FRESH,
    TIER_REFERENCE,
    CircuitBreaker,
    PlanResponse,
    ResiliencePolicy,
)
from repro.service.stats import (
    OUTCOME_COALESCED,
    OUTCOME_DEGRADED,
    OUTCOME_HIT,
    OUTCOME_MISS,
    OUTCOME_SHED,
    ServiceStats,
)

_SHUTDOWN = object()


class FingerprintMemo:
    """Identity-keyed memo of workload fingerprints that holds no workload alive.

    Resubmitting the same task objects (the common serving pattern) skips
    canonicalisation entirely.  An entry keeps the digest and weak
    references to the workload's task objects (or its graph), and is served
    only while every reference still returns the very object submitted: an
    id CPython recycled after its object died finds a dead reference, so
    its workload is fingerprinted afresh and overwrites the entry.  Dead
    entries age out of the ``capacity``-entry LRU.  Workloads are treated
    as immutable once submitted.  A fleet's router
    (:class:`~repro.service.fleet.PlanServiceFleet`) keeps the one memo a
    fleet reads and hands each digest to its shard, whose memo stays empty.
    """

    def __init__(
        self,
        cluster: ClusterTopology,
        config_signature: Mapping[str, Any],
        capacity: int = 1024,
    ) -> None:
        self.cluster = cluster
        self.config_signature = config_signature
        self.capacity = capacity
        self._lock = threading.Lock()
        self._memo: OrderedDict[
            tuple[int, ...], tuple[tuple[weakref.ref, ...], str]
        ] = OrderedDict()

    @staticmethod
    def key_of(workload: PlannerInput) -> tuple[int, ...]:
        if isinstance(workload, ComputationGraph):
            return (id(workload),)
        return tuple(id(task) for task in workload)

    def fingerprint(self, workload: PlannerInput) -> str:
        if isinstance(workload, ComputationGraph):
            objects: tuple = (workload,)
        else:
            objects = workload = tuple(workload)
        key = self.key_of(workload)
        with self._lock:
            memoized = self._memo.get(key)
            if memoized is not None:
                refs, fp = memoized
                if all(ref() is obj for ref, obj in zip(refs, objects)):
                    self._memo.move_to_end(key)
                    return fp
        fp = fingerprint_workload(workload, self.cluster, self.config_signature)
        refs = tuple(map(weakref.ref, objects))
        with self._lock:
            self._memo[key] = (refs, fp)
            self._memo.move_to_end(key)
            while len(self._memo) > self.capacity:
                self._memo.popitem(last=False)
        return fp


class ServiceError(Exception):
    """Raised for invalid service configuration, shutdown, or exhausted
    degradation ladders."""


class ServiceOverloadError(ServiceError):
    """The request was shed by bounded-queue admission control."""


@dataclass
class _Request:
    """One queued planning request: its identity, future and retry state."""

    fingerprint: str
    workload: PlannerInput
    future: Future
    index: int = -1
    attempt: int = 0
    submitted_at: float = field(default_factory=time.monotonic)
    deadline_at: float | None = None
    trace_id: str | None = None
    tenant: str | None = None

    def past_deadline(self) -> bool:
        return self.deadline_at is not None and time.monotonic() > self.deadline_at


class _WorkerCrashed(Exception):
    """Internal: an injected worker crash; carries the requests to requeue."""

    def __init__(self, requests: "list[_Request]") -> None:
        super().__init__("injected worker crash")
        self.requests = requests


class _WorkerPlanner:
    """A worker's planner, built by the factory on the worker's first solve.

    The build runs inside that solve attempt's guard, so a factory that
    raises fails the attempt like a failed solve (retried, then degraded,
    under a resilience policy; resolved ``error`` without one) and the
    worker keeps serving; the next attempt calls the factory again.
    """

    __slots__ = ("_factory", "_planner")

    def __init__(self, factory: Callable[[], ExecutionPlanner]) -> None:
        self._factory = factory
        self._planner: ExecutionPlanner | None = None

    def plan(self, workload: PlannerInput, **kwargs) -> ExecutionPlan:
        if self._planner is None:
            self._planner = self._factory()
        return self._planner.plan(workload, **kwargs)


class PlanService:
    """A concurrent, deduplicating, caching front-end to the execution planner.

    Parameters
    ----------
    planner:
        Either a ready :class:`ExecutionPlanner` shared by all workers, or a
        zero-argument factory of one; with a factory every worker thread
        builds its own planner instance on its first solve (useful when
        profiling noise is enabled, since the synthetic profiler's RNG is
        per-planner), and a factory that raises there fails that solve
        attempt.  The service reads its cluster and configuration from this
        planner (the factory's first product), its *prototype*.
    cache:
        Plan cache consulted before planning and populated after; a default
        cache of 64 entries is created when omitted.  A fleet passes every
        shard its one shared cache.
    num_workers:
        Size of the bounded worker pool.
    max_batch_size:
        Maximum number of queued requests one worker drains per wake-up.
    resilience:
        Optional :class:`ResiliencePolicy` enabling retries, deadlines, the
        circuit breaker, admission control and the degradation ladder, whose
        ``reference`` rung solves on ``ExecutionPlanner(cluster,
        optimized=False)`` and applies only when the prototype has that
        planner's configuration.
        Defaults to a stock policy whenever ``fault_injector`` is given
        (an injected fault campaign without recovery would be pointless).
    fault_injector:
        Optional :class:`~repro.faults.injection.FaultInjector` applying a
        deterministic fault schedule at the service's hook points.
    journal:
        Optional :class:`~repro.obs.telemetry.TelemetryJournal`; when given,
        every request's lifecycle is journaled (see the module docstring).
        Shared with the fault injector by the benchmark harness so injected
        faults land in the same stream.
    slo:
        Optional :class:`~repro.obs.slo.SloTracker` fed one sample per
        resolved request (outcome, latency, tenant, topology).
    trace_ids:
        Optional :class:`~repro.obs.telemetry.TraceIdGenerator` (a fleet
        passes each shard one namespaced by its ordinal); by default a
        private generator seeded with ``trace_seed``.
    label:
        Scope label stamped on journal events and SLO samples (``topology``
        field); defaults to the topology-signature prefix.  A fleet passes
        ``<topology>/s<ordinal>`` so per-shard rollups stay separable.
    """

    def __init__(
        self,
        planner: ExecutionPlanner | Callable[[], ExecutionPlanner],
        *,
        cache: PlanCache | None = None,
        stats: ServiceStats | None = None,
        num_workers: int = 2,
        max_batch_size: int = 8,
        resilience: ResiliencePolicy | None = None,
        fault_injector=None,
        journal: TelemetryJournal | None = None,
        slo=None,
        trace_ids: TraceIdGenerator | None = None,
        trace_seed: int = 0,
        label: str | None = None,
    ) -> None:
        if num_workers <= 0:
            raise ServiceError("num_workers must be positive")
        if max_batch_size <= 0:
            raise ServiceError("max_batch_size must be positive")
        if callable(planner) and not isinstance(planner, ExecutionPlanner):
            self._planner_factory: Callable[[], ExecutionPlanner] = planner
            self._prototype = planner()
        else:
            self._planner_factory = lambda: planner  # type: ignore[return-value]
            self._prototype = planner
        if not isinstance(self._prototype, ExecutionPlanner):
            raise ServiceError(
                "planner must be an ExecutionPlanner or a factory of one"
            )
        self.cache = cache if cache is not None else PlanCache(capacity=64)
        self.stats = stats if stats is not None else ServiceStats()
        self.max_batch_size = max_batch_size
        if resilience is None and fault_injector is not None:
            resilience = ResiliencePolicy()
        self.resilience = resilience
        self.injector = fault_injector if fault_injector is not None else NULL_INJECTOR
        self.journal = journal
        self.slo = slo
        self.trace_ids = (
            trace_ids if trace_ids is not None else TraceIdGenerator(trace_seed)
        )
        # Journal-less collaborators inherit the service's journal so cache
        # quarantines and injected faults land in the same event stream as
        # the request lifecycles they belong to.
        if journal is not None:
            if self.cache.journal is None:
                self.cache.journal = journal
            if self.injector is not NULL_INJECTOR and self.injector.journal is None:
                self.injector.journal = journal
        self._reference: ExecutionPlanner | None = None
        self._reference_lock = threading.Lock()
        self._topology_label = (
            label if label is not None else self._prototype.cluster.signature()[:12]
        )
        self.breaker = CircuitBreaker(
            failure_threshold=(
                resilience.breaker_failure_threshold if resilience else 0
            ),
            reset_seconds=(resilience.breaker_reset_seconds if resilience else 0.5),
        )
        self._queue: queue.Queue = queue.Queue()
        self._inflight: dict[str, _Request] = {}
        # The trace ID each thread last minted: ``request`` reads it back,
        # because a coalesced follower's future is the leader's.
        self._submitted = threading.local()
        self._lock = threading.Lock()
        self._closed = False
        self._cancel_pending = False
        self._fingerprints = FingerprintMemo(
            self._prototype.cluster, self._prototype.config_signature()
        )
        self._num_workers = num_workers
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"plan-worker-{i}", daemon=True
            )
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()
        self._update_breaker_gauge()

    # ------------------------------------------------------------- public API
    def fingerprint(self, workload: PlannerInput) -> str:
        """Fingerprint a request exactly as :meth:`submit` would."""
        return self._fingerprints.fingerprint(workload)

    def submit(
        self,
        workload: PlannerInput,
        *,
        tenant: str | None = None,
        fingerprint: str | None = None,
    ) -> Future:
        """Enqueue a planning request; returns a future yielding the plan.

        Identical in-flight requests share one future (single-flight); cached
        requests resolve immediately; with admission control enabled, a
        request arriving over the queue bound resolves immediately with
        :class:`ServiceOverloadError` (explicit load shedding — the future
        never hangs).  The enqueue → dedup portion of the request lifecycle
        runs inside a ``service.submit`` span whose ``outcome`` attribute
        records how the request was resolved; the solve and cache-fill steps
        are spanned in the worker thread.

        Every submission mints a trace ID — even coalesced ones, whose
        journal entry records the in-flight leader's ID (the returned future
        is the leader's, so ``future._repro_trace_id`` stays the leader's
        too).  ``tenant`` is an optional accounting label carried through
        the journal, the :class:`PlanResponse` and the SLO tracker.

        ``fingerprint`` accepts the request's precomputed canonical
        fingerprint (a fleet router fingerprints once to pick the shard);
        when given, the service trusts it and neither re-canonicalises nor
        reads or writes its own memo.
        """
        start = time.monotonic()
        metrics = get_metrics()
        with get_tracer().span("service.submit", category="service") as span:
            if not isinstance(workload, ComputationGraph):
                workload = tuple(workload)  # snapshot mutable task sequences
            fp = fingerprint if fingerprint is not None else self.fingerprint(workload)
            trace_id = self.trace_ids.mint(fp)
            self._submitted.trace_id = trace_id
            span.set(fingerprint=fp[:12], trace_id=trace_id)
            self._emit(EVENT_SUBMITTED, trace_id, tenant=tenant, fingerprint=fp)

            # The closed check, inflight registration and enqueue happen under
            # one lock: close() flips _closed under the same lock before
            # pushing the shutdown sentinels, so a request can never land
            # behind them (which would leave its future unresolved forever).
            with self._lock:
                if self._closed:
                    raise ServiceError("PlanService is closed")
                future: Future = Future()
                future._repro_trace_id = trace_id
                cached = self.cache.get(fp)
                if cached is not None:
                    self._emit(
                        EVENT_CACHE_HIT, trace_id, tenant=tenant, tier=TIER_CACHE
                    )
                    self._resolve(
                        future,
                        PlanResponse(
                            outcome=RESPONSE_SERVED,
                            tier=TIER_CACHE,
                            fingerprint=fp,
                            plan=cached,
                            trace_id=trace_id,
                            tenant=tenant,
                        ),
                        start,
                        OUTCOME_HIT,
                        result=cached,
                    )
                    span.set(outcome=OUTCOME_HIT)
                    return future
                leader = self._inflight.get(fp)
                if leader is not None:
                    self._emit(
                        EVENT_COALESCED, trace_id, tenant=tenant, leader=leader.trace_id
                    )
                    self._close_follower(leader.future, start, trace_id, tenant)
                    metrics.inc("service.cache", outcome=OUTCOME_COALESCED)
                    span.set(outcome=OUTCOME_COALESCED)
                    return leader.future
                if (
                    self.resilience is not None
                    and self.resilience.max_queue_depth is not None
                    and len(self._inflight) >= self.resilience.max_queue_depth
                ):
                    self._emit(EVENT_SHED, trace_id, tenant=tenant)
                    self._resolve(
                        future,
                        PlanResponse(
                            outcome=RESPONSE_SHED,
                            tier=None,
                            fingerprint=fp,
                            error="shed by admission control",
                            trace_id=trace_id,
                            tenant=tenant,
                        ),
                        start,
                        OUTCOME_SHED,
                        error=ServiceOverloadError(
                            f"request shed: {len(self._inflight)} requests "
                            "already queued or in flight"
                        ),
                    )
                    span.set(outcome=OUTCOME_SHED)
                    return future
                future._repro_fingerprint = fp  # for timeout cleanup
                deadline = None
                if (
                    self.resilience is not None
                    and self.resilience.deadline_seconds is not None
                ):
                    deadline = start + self.resilience.deadline_seconds
                request = _Request(
                    fingerprint=fp,
                    workload=workload,
                    future=future,
                    index=self.injector.assign_index(),
                    submitted_at=start,
                    deadline_at=deadline,
                    trace_id=trace_id,
                    tenant=tenant,
                )
                self._inflight[fp] = request
                self._queue.put(request)
                self._emit(EVENT_ENQUEUED, trace_id, tenant=tenant)
                metrics.inc("service.cache", outcome=OUTCOME_MISS)
                span.set(outcome=OUTCOME_MISS)
            return future

    def plan(
        self,
        workload: PlannerInput,
        timeout: float | None = None,
        *,
        tenant: str | None = None,
        fingerprint: str | None = None,
    ) -> ExecutionPlan:
        """Synchronous convenience wrapper around :meth:`submit`.

        A timeout abandons the request: the single-flight entry for its
        fingerprint is released, so a later identical request plans afresh
        (or hits the cache once the abandoned solve lands) instead of
        latching onto the abandoned future forever.
        """
        future = self.submit(workload, tenant=tenant, fingerprint=fingerprint)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            self._abandon(future)
            raise

    def request(
        self,
        workload: PlannerInput,
        timeout: float | None = None,
        *,
        tenant: str | None = None,
        fingerprint: str | None = None,
    ) -> PlanResponse:
        """Resolve one request into its :class:`PlanResponse`.

        This is the resilient entry point: it never raises for shed,
        degraded or failed requests — the response's ``outcome`` says what
        happened, and ``response.plan`` carries the plan whenever one was
        served.  (A client-side ``timeout`` expiry is the one exception that
        still surfaces as an ``error`` response rather than an exception.)
        A coalesced follower gets the leader's plan, tier, outcome and
        attempts under its own ``trace_id`` and ``tenant``.
        """
        future = self.submit(workload, tenant=tenant, fingerprint=fingerprint)
        trace_id = self._submitted.trace_id
        try:
            future.result(timeout=timeout)
            error = None
        except FutureTimeoutError:
            self._abandon(future)
            error = f"client timeout after {timeout}s"
        except Exception as exc:  # noqa: BLE001 - folded into the response
            error = None if self._response_of(future) is not None else str(exc)
        if error is not None:
            # Timed out, or cancelled by its caller: the service never closed
            # this request, so there is no attached response to return.
            return PlanResponse(
                outcome=RESPONSE_ERROR,
                tier=None,
                fingerprint=getattr(future, "_repro_fingerprint", ""),
                error=error,
                trace_id=trace_id,
                tenant=tenant,
            )
        response = self._response_of(future)
        if response.trace_id != trace_id:
            response = replace(response, trace_id=trace_id, tenant=tenant)
        return response

    def serialized_plan(
        self, workload: PlannerInput, timeout: float | None = None
    ) -> str:
        """Return the serialized plan document, byte-identical across hits."""
        fp = self.fingerprint(workload)
        payload = self.cache.get_payload(fp)
        if payload is not None:
            return payload
        plan = self.plan(workload, timeout=timeout)
        return self.cache.get_payload(fp) or plan_to_json(plan)

    @property
    def num_workers(self) -> int:
        """Configured worker-pool size (crashed workers are respawned)."""
        return self._num_workers

    def pending_requests(self) -> int:
        """Number of requests queued or being planned right now."""
        with self._lock:
            return len(self._inflight)

    def close(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting requests and shut the worker pool down.

        Requests already queued are still planned by default (they sit ahead
        of the shutdown sentinels in the queue); with ``cancel_pending`` they
        resolve immediately with :class:`ServiceError` instead.  Either way,
        after a ``wait=True`` close every future this service ever returned
        is resolved: any request left unresolved when the workers exit (e.g.
        one requeued behind the sentinels by a crashed worker) is failed with
        :class:`ServiceError` rather than left hanging.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cancel_pending = cancel_pending
            for _ in self._workers:
                self._queue.put(_SHUTDOWN)
        if wait:
            while True:
                with self._lock:
                    workers = list(self._workers)
                for worker in workers:
                    worker.join()
                with self._lock:
                    if len(self._workers) == len(workers):
                        break
            self._fail_leftovers()

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- internals
    def _emit(self, kind: str, trace_id: str | None, **fields) -> None:
        """Journal one lifecycle event (no-op without a journal)."""
        if self.journal is not None:
            self.journal.emit(
                kind, trace_id, topology=self._topology_label, **fields
            )

    @staticmethod
    def _response_of(future: Future) -> PlanResponse | None:
        return getattr(future, "_repro_response", None)

    def _abandon(self, future: Future) -> None:
        """Release the single-flight slot of a timed-out request.

        The worker still resolves the abandoned future when its solve lands
        (coalesced waiters may hold it), but new identical submissions get a
        fresh future instead of latching onto this one.
        """
        fp = getattr(future, "_repro_fingerprint", None)
        if fp is None:
            return
        with self._lock:
            request = self._inflight.get(fp)
            if request is not None and request.future is future:
                del self._inflight[fp]

    def _fail_leftovers(self) -> None:
        """Resolve every still-pending future after the workers exited."""
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
            drained: list[_Request] = []
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _SHUTDOWN:
                    drained.append(item)
        for request in drained:
            self._fail_request(
                request, ServiceError("PlanService closed before planning started")
            )
        message = "PlanService closed before the request completed"
        for request in leftovers:
            if not request.future.done():  # not failed above as drained
                self._resolve(
                    request.future,
                    PlanResponse(
                        outcome=RESPONSE_ERROR,
                        tier=None,
                        fingerprint=request.fingerprint,
                        error=message,
                        trace_id=request.trace_id,
                    ),
                    request.submitted_at,
                    error=ServiceError(message),
                )

    def _close_follower(
        self, future: Future, start: float, trace_id: str, tenant: str | None
    ) -> None:
        """Close a coalesced follower, under its own trace ID and tenant,
        when the leader's shared future resolves (as an error if it failed)."""

        def _done(completed: Future) -> None:
            if completed.cancelled():
                return
            response = replace(
                self._response_of(completed), trace_id=trace_id, tenant=tenant
            )
            self._resolve(None, response, start, OUTCOME_COALESCED)

        future.add_done_callback(_done)

    def _resolve(
        self,
        future: Future | None,
        response: PlanResponse,
        started_at: float,
        outcome: str | None = None,
        *,
        attempt: int | None = None,
        result: ExecutionPlan | None = None,
        error: Exception | None = None,
    ) -> None:
        """Close one request: every sink in one fixed order, the future last.

        The order: attach ``response`` to ``future``; journal
        ``request.resolved`` with the response's tenant, tier and outcome
        (plus ``attempt`` where the site journals one); record the SLO
        sample; record the stats ``outcome`` and its registry counter, or an
        error for an ``error`` response; resolve the future with ``result``
        or ``error``.  Journaling first keeps a serial submitter's journal
        ordered.  ``future`` must still be pending; a coalesced follower
        passes none, since it shares the leader's, already resolved one.
        """
        if future is not None:
            future._repro_response = response
        latency = time.monotonic() - started_at
        self._emit(
            EVENT_RESOLVED,
            response.trace_id,
            tenant=response.tenant,
            tier=response.tier,
            attempt=attempt,
            outcome=response.outcome,
        )
        if self.slo is not None:
            self.slo.record(
                response.outcome,
                latency,
                tenant=response.tenant,
                topology=self._topology_label,
            )
        metrics = get_metrics()
        if response.outcome == RESPONSE_ERROR:
            self.stats.record_error()
            metrics.inc("service.errors")
        else:
            self.stats.record(outcome, latency)
            if outcome == OUTCOME_HIT:
                metrics.inc("service.cache", outcome=OUTCOME_HIT)
            elif outcome == OUTCOME_SHED:
                metrics.inc("service.shed")
        if future is None:
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def _update_breaker_gauge(self) -> None:
        get_metrics().gauge(
            "service.breaker_state",
            float(self.breaker.state),
            topology=self._topology_label,
        )

    def _worker_loop(self) -> None:
        planner = _WorkerPlanner(self._planner_factory)
        # Each batch is served in its own frame, so an idle worker holds no
        # request, nor its workload, while it waits for the next one.
        while self._serve_batch(planner, self._queue.get()):
            pass

    def _serve_batch(self, planner: _WorkerPlanner, item) -> bool:
        """Drain and serve one batch; ``False`` once this worker must stop."""
        if item is _SHUTDOWN:
            return False
        batch: list[_Request] = [item]
        while len(batch) < self.max_batch_size:
            try:
                extra = self._queue.get_nowait()
            except queue.Empty:
                break
            if extra is _SHUTDOWN:
                self._queue.put(_SHUTDOWN)  # leave the signal for a peer
                break
            batch.append(extra)
        if self._cancel_pending:
            for request in batch:
                self._fail_request(
                    request,
                    ServiceError("PlanService closed before planning started"),
                )
            return True
        # Group by fingerprint: duplicates that reached the queue (e.g.
        # submitted between a cache eviction and re-planning) are planned
        # once per batch.
        grouped: dict[str, list[_Request]] = {}
        for request in batch:
            grouped.setdefault(request.fingerprint, []).append(request)
        for fp, requests in grouped.items():
            try:
                self._serve_group(planner, fp, requests)
            except _WorkerCrashed as crash:
                # Simulated worker death: requeue the crashed group (and
                # any batch groups not yet served), hand the pool a
                # replacement thread, and let this one die.
                served = False
                for other_fp, other_requests in grouped.items():
                    if other_fp == fp:
                        served = True
                        for request in crash.requests:
                            self._emit(
                                EVENT_REQUEUED,
                                request.trace_id,
                                tenant=request.tenant,
                                attempt=request.attempt,
                            )
                            self._queue.put(request)
                        continue
                    if served:
                        for request in other_requests:
                            self._emit(
                                EVENT_REQUEUED,
                                request.trace_id,
                                tenant=request.tenant,
                                attempt=request.attempt,
                            )
                            self._queue.put(request)
                self._respawn_worker()
                return False
        return True

    def _respawn_worker(self) -> None:
        with self._lock:
            if self._closed:
                # No replacement: close() already queued one sentinel per
                # worker; its final sweep resolves whatever was requeued.
                return
            replacement = threading.Thread(
                target=self._worker_loop,
                name=f"plan-worker-respawn-{len(self._workers)}",
                daemon=True,
            )
            self._workers.append(replacement)
        replacement.start()

    # ------------------------------------------------------------- resolution
    def _resolve_group(
        self,
        requests: list[_Request],
        plan: ExecutionPlan,
        tier: str,
        attempts: int,
    ) -> None:
        degraded = tier in DEGRADED_TIERS
        outcome = OUTCOME_DEGRADED if degraded else OUTCOME_MISS
        response_outcome = RESPONSE_DEGRADED if degraded else RESPONSE_SERVED
        if degraded:
            get_metrics().inc("service.degraded", tier=tier)
            # One ladder decision per group: journaled once, under the
            # leader's trace ID (per-request tiers land in their resolved
            # events below).
            self._emit(
                EVENT_DEGRADED,
                requests[0].trace_id,
                tenant=requests[0].tenant,
                tier=tier,
                attempt=attempts,
            )
        for request in requests:
            if self._claim(request):
                self._resolve(
                    request.future,
                    PlanResponse(
                        outcome=response_outcome,
                        tier=tier,
                        fingerprint=request.fingerprint,
                        plan=plan,
                        attempts=attempts,
                        trace_id=request.trace_id,
                        tenant=request.tenant,
                    ),
                    request.submitted_at,
                    outcome,
                    attempt=attempts,
                    result=plan,
                )

    def _fail_request(
        self, request: _Request, exc: Exception, attempts: int = 0
    ) -> None:
        if self._claim(request):
            self._resolve(
                request.future,
                PlanResponse(
                    outcome=RESPONSE_ERROR,
                    tier=None,
                    fingerprint=request.fingerprint,
                    attempts=attempts,
                    error=str(exc),
                    trace_id=request.trace_id,
                    tenant=request.tenant,
                ),
                request.submitted_at,
                attempt=attempts,
                error=exc,
            )

    def _claim(self, request: _Request) -> bool:
        """Drop ``request``'s single-flight slot if it still holds it; True
        while its future is pending, False once its caller cancelled it."""
        with self._lock:
            if self._inflight.get(request.fingerprint) is request:
                del self._inflight[request.fingerprint]
        return not request.future.done()

    # ----------------------------------------------------------------- solving
    def _serve_group(
        self, planner: _WorkerPlanner, fp: str, requests: list[_Request]
    ) -> None:
        """Serve one fingerprint group: retries, then the degradation ladder.

        Raises :class:`_WorkerCrashed` (to the worker loop) when an injected
        worker crash is scheduled and retry budget remains; every other path
        resolves all futures of the group.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        primary = requests[0]
        policy = self.resilience
        max_attempts = policy.max_attempts if policy is not None else 1
        last_error: Exception | None = None
        attempt = primary.attempt
        while attempt < max_attempts:
            if primary.past_deadline():
                last_error = last_error or ServiceError(
                    f"deadline exceeded before attempt {attempt}"
                )
                metrics.inc("service.deadline_exceeded")
                break
            if not self.breaker.allow():
                last_error = last_error or ServiceError("circuit breaker open")
                break
            if attempt > 0:
                metrics.inc("service.retries")
                self._emit(
                    EVENT_RETRY,
                    primary.trace_id,
                    tenant=primary.tenant,
                    attempt=attempt,
                )
                if policy is not None:
                    backoff = policy.backoff_seconds(primary.index, attempt)
                    if backoff > 0 and not primary.past_deadline():
                        time.sleep(backoff)
            self._emit(
                EVENT_ATTEMPT,
                primary.trace_id,
                tenant=primary.tenant,
                attempt=attempt,
            )
            try:
                self.injector.on_solve_attempt(
                    primary.index, attempt, trace_id=primary.trace_id
                )
                with tracer.span(
                    "service.solve",
                    category="service",
                    fingerprint=fp[:12],
                    attempt=attempt,
                    trace_id=primary.trace_id,
                ):
                    plan = planner.plan(primary.workload, fingerprint=fp)
            except InjectedWorkerCrash:
                self.breaker.record_failure()
                self._update_breaker_gauge()
                if attempt + 1 < max_attempts:
                    for request in requests:
                        request.attempt = attempt + 1
                    raise _WorkerCrashed(requests)
                last_error = ServiceError(
                    f"worker crashed on final attempt {attempt}"
                )
                attempt += 1
                continue
            except Exception as exc:  # noqa: BLE001 - retried, then degraded
                self.breaker.record_failure()
                self._update_breaker_gauge()
                last_error = exc
                attempt += 1
                continue
            # Success: fill the cache (possibly corrupted by the fault plan —
            # checksums catch that at serve time) and resolve the group.
            self.breaker.record_success()
            self._update_breaker_gauge()
            with tracer.span(
                "service.cache_put", category="service", fingerprint=fp[:12]
            ):
                self.cache.put(fp, plan)
            if self.injector.corrupt_cache_payload(
                primary.index, trace_id=primary.trace_id
            ):
                self.cache.corrupt(fp)
            self._resolve_group(requests, plan, TIER_FRESH, attempts=attempt + 1)
            return
        self._degrade_group(fp, requests, last_error, attempt)

    def _degrade_group(
        self,
        fp: str,
        requests: list[_Request],
        last_error: Exception | None,
        attempts: int,
    ) -> None:
        """Walk the degradation ladder for a group whose retries ran out."""
        policy = self.resilience
        tracer = get_tracer()
        if policy is None:
            # No resilience configured: surface the planner's own exception
            # (the pre-hardening contract callers and tests rely on).
            error = last_error if last_error is not None else ServiceError(
                "planning failed"
            )
            for request in requests:
                self._fail_request(request, error, attempts=attempts)
            return
        reference = self._reference_planner() if policy.allow_reference else None
        if reference is not None:
            try:
                with tracer.span(
                    "service.solve",
                    category="service",
                    fingerprint=fp[:12],
                    tier=TIER_REFERENCE,
                    trace_id=requests[0].trace_id,
                ):
                    plan = reference.plan(requests[0].workload, fingerprint=fp)
            except Exception as exc:  # noqa: BLE001 - ladder exhausted
                last_error = exc
            else:
                self.cache.put(fp, plan)
                self._resolve_group(requests, plan, TIER_REFERENCE, attempts)
                return
        error = ServiceError(
            f"planning failed after {attempts} attempt(s) and the degradation "
            f"ladder was exhausted: {last_error}"
        )
        error.__cause__ = last_error
        for request in requests:
            self._fail_request(request, error, attempts=attempts)

    def _reference_planner(self) -> ExecutionPlanner | None:
        """The reference rung's planner (built lazily), or ``None`` when the
        rung does not apply: a prototype of another configuration fingerprints
        its requests for plans the reference planner would not produce."""
        with self._reference_lock:
            if self._reference is None:
                self._reference = ExecutionPlanner(
                    self._prototype.cluster, optimized=False
                )
            reference = self._reference
        if reference.config_signature() != self._fingerprints.config_signature:
            return None
        return reference

