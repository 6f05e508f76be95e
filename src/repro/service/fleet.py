"""The serving front end: one plan service behind the fleet's name.

:class:`PlanServiceFleet` is what a caller builds to serve one topology's
plans.  It holds one :class:`~repro.service.server.PlanService` over a
256-entry :class:`~repro.service.cache.PlanCache` and forwards every entry
point to it, so requests share one queue, one single-flight map, one
fingerprint memo, one circuit breaker and one set of telemetry sinks.  The
service's solves are Python threads under one interpreter lock, so
splitting the queue into more thread services buys no throughput; more
workers or a process pool are the places to add concurrency.

Durability is composed, not built in: a caller that wants a warm start
calls ``PlanStore(path).load_into(fleet.cache)`` and, later,
``PlanStore(path).save(fleet.cache)``.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Callable

from repro.core.plan import ExecutionPlan
from repro.core.planner import ExecutionPlanner, PlannerInput
from repro.service.cache import PlanCache
from repro.service.resilience import PlanResponse
from repro.service.server import PlanService


class PlanServiceFleet:
    """One topology's serving front end over one :class:`PlanService`.

    Parameters
    ----------
    planner_factory:
        Zero-argument factory building an :class:`ExecutionPlanner`; the
        service builds its prototype and one planner per worker with it.
    cache:
        Pre-built cache; by default a :class:`PlanCache` of ``capacity``
        entries.  The default 256 can hold about 170 MB of 1024-GPU plans
        or 335 MB of 4096-GPU plans (see :class:`PlanCache` for the
        per-plan figures).
    **options:
        The service's other keywords (``num_workers``, ``max_batch_size``,
        ``resilience``, ``journal``, ``slo``, ``trace_seed``), passed
        through with :class:`PlanService`'s defaults.
    """

    def __init__(
        self,
        planner_factory: Callable[[], ExecutionPlanner],
        *,
        cache: PlanCache | None = None,
        capacity: int = 256,
        **options,
    ) -> None:
        self.service = PlanService(
            planner_factory,
            cache=cache if cache is not None else PlanCache(capacity=capacity),
            **options,
        )
        #: The fleet's services, for callers that wrap each one's entry
        #: points (``perfbench`` does): always the one.
        self.shards = (self.service,)
        self.cache = self.service.cache
        self.stats = self.service.stats
        self.journal = self.service.journal
        self.slo = self.service.slo

    def fingerprint(self, workload: PlannerInput) -> str:
        """Canonical fingerprint, memoized for as long as the workload's
        objects live."""
        return self.service.fingerprint(workload)

    def submit(
        self, workload: PlannerInput, *, tenant: str | None = None
    ) -> Future:
        return self.service.submit(workload, tenant=tenant)

    def plan(
        self,
        workload: PlannerInput,
        timeout: float | None = None,
        *,
        tenant: str | None = None,
    ) -> ExecutionPlan:
        return self.service.plan(workload, timeout, tenant=tenant)

    def request(
        self,
        workload: PlannerInput,
        timeout: float | None = None,
        *,
        tenant: str | None = None,
    ) -> PlanResponse:
        return self.service.request(workload, timeout, tenant=tenant)

    def pending_requests(self) -> int:
        return self.service.pending_requests()

    def close(self, wait: bool = True, cancel_pending: bool = False) -> None:
        self.service.close(wait=wait, cancel_pending=cancel_pending)

    def __enter__(self) -> "PlanServiceFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
