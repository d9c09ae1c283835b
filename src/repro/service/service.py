"""DatasetService: the multi-tenant front door over one StarkContext.

One service instance turns a single-tenant driver into a shared one:

* tenants are created with a fair-share **pool** (weight, min-share), an
  optional per-tenant **cache quota**, and an optional per-tenant
  **admission bound** (``max_pending_jobs``: arrivals past it are shed);
* datasets are registered/looked-up/branched/dropped through the
  :class:`~repro.service.registry.DatasetRegistry`, with ownership
  declared to the quota manager;
* jobs are submitted **asynchronously**: a submission schedules an
  arrival event on the SimKernel, the arrival enqueues into the tenant's
  pool (or is shed), and a separate dispatch event — one per job, always
  rescheduled at the current frontier — asks the
  :class:`~repro.service.pools.SchedulingPolicy` which pool goes next.

The arrival/dispatch split is what makes scheduling policy matter in a
virtual-time simulator: while one job executes (pushing the clock
frontier), every arrival whose nominal time the frontier passed fires
*before* the next dispatch event (kernel events order by time), so the
dispatcher always chooses from the full backlog rather than trivially
running jobs in arrival order.  Everything runs on the one event heap —
determinism (byte-identical event logs) is preserved.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..cluster.queueing import ArrivalResult, LoadResult
from ..obs.events import (
    PoolWeightsUpdated,
    TenantJobAdmitted,
    TenantJobCompleted,
    TenantJobShed,
    TenantJobSubmitted,
)
from .pools import Pool, PoolSet
from .quotas import TenantCacheQuotas
from .registry import DatasetHandle, DatasetRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.queueing import JobFn
    from ..engine.context import StarkContext
    from ..engine.rdd import RDD


@dataclass
class Tenant:
    """One tenant's identity, pool, bounds, and response-time record."""

    name: str
    pool: Pool = field(repr=False)
    #: Bound on jobs queued-or-running for this tenant (None: unbounded).
    max_pending_jobs: Optional[int] = None
    #: Completed-job delays + shed count, in JobDriver's result format.
    result: LoadResult = field(default_factory=lambda: LoadResult(0.0))
    #: Finish times of ``result.results``, sorted, so :meth:`pending`
    #: counts the jobs still executing with one bisection.
    _finishes: List[float] = field(default_factory=list, repr=False)

    def pending(self, now: float) -> int:
        """Jobs queued or still executing at ``now`` — any ``now``, a
        late arrival's included: a job runs at ``now`` iff it finishes
        after it."""
        finishes = self._finishes
        running = len(finishes) - bisect.bisect_right(finishes, now)
        return self.pool.backlog + running

    def record(self, arrival: float, finish: float) -> None:
        """File one completed job's response time."""
        self.result.results.append(
            ArrivalResult(arrival=arrival, finish=finish))
        bisect.insort(self._finishes, finish)


@dataclass
class _QueuedJob:
    tenant: str
    index: int
    arrival: float
    fn: "JobFn" = field(repr=False)


class DatasetService:
    """Driver-side multi-tenant dataset service over one context."""

    def __init__(self, context: "StarkContext") -> None:
        config = context.config
        config.validate_service()
        self.context = context
        self.pools = PoolSet(config.scheduling_policy,
                             on_pool_updated=self._on_pool_updated)
        self.quotas = TenantCacheQuotas(
            context.block_manager_master,
            default_quota_bytes=config.tenant_quota_mb * 1e6,
        )
        context.cache_manager.quotas = self.quotas
        self.registry = DatasetRegistry(context)
        self.tenants: Dict[str, Tenant] = {}
        self._job_seq = itertools.count()
        self._dispatch_scheduled = False
        #: Pool reweight count (ground truth for event reconciliation).
        self.pool_updates = 0

    # ---- tenants ------------------------------------------------------------

    def create_tenant(
        self,
        name: str,
        weight: float = 1.0,
        min_share: int = 0,
        quota_mb: Optional[float] = None,
        max_pending_jobs: Optional[int] = None,
    ) -> Tenant:
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already exists")
        if max_pending_jobs is not None and max_pending_jobs < 1:
            raise ValueError(
                f"max_pending_jobs must be at least 1: {max_pending_jobs}")
        pool = self.pools.create(name, weight=weight, min_share=min_share)
        if quota_mb is not None:
            self.quotas.set_quota(name, quota_mb * 1e6)
        tenant = Tenant(name=name, pool=pool,
                        max_pending_jobs=max_pending_jobs)
        self.tenants[name] = tenant
        return tenant

    def set_pool_weight(self, tenant: str, weight: float,
                        min_share: Optional[int] = None) -> None:
        self.pools.set_weight(tenant, weight, min_share)

    # ---- datasets (registry facade + quota ownership) -----------------------

    def register_dataset(self, tenant: str, name: str,
                         rdd: "RDD") -> DatasetHandle:
        self._require_tenant(tenant)
        handle = self.registry.register(tenant, name, rdd)
        self.quotas.own(handle.rdd_id, tenant)
        return handle

    def lookup_dataset(self, tenant: str, ref: str) -> DatasetHandle:
        self._require_tenant(tenant)
        return self.registry.lookup(tenant, ref)

    def branch_dataset(self, tenant: str, ref: str,
                       new_name: str) -> DatasetHandle:
        self._require_tenant(tenant)
        return self.registry.branch(tenant, ref, new_name)

    def drop_dataset(self, tenant: str, ref: str) -> bool:
        self._require_tenant(tenant)
        return self.registry.drop(tenant, ref)

    # ---- async job submission -----------------------------------------------

    def submit(self, tenant: str, job: "JobFn", arrival: float) -> None:
        """Schedule one job arrival at simulated time ``arrival``.

        ``job(arrival_time, job_index) -> finish_time`` runs when the
        dispatcher selects it; call :meth:`run` to drive the clock.
        """
        self._require_tenant(tenant)
        kernel = self.context.cluster.kernel
        index = next(self._job_seq)
        queued = _QueuedJob(tenant=tenant, index=index, arrival=arrival,
                            fn=job)
        kernel.schedule(max(arrival, kernel.now),
                        lambda: self._on_arrival(queued))

    def submit_arrivals(self, tenant: str, job: "JobFn",
                        arrivals: Sequence[float]) -> None:
        for arrival in arrivals:
            self.submit(tenant, job, arrival)

    def run(self) -> None:
        """Drive the kernel until every submitted job has dispatched."""
        self.context.cluster.kernel.run_all()

    # ---- results ------------------------------------------------------------

    def result_of(self, tenant: str) -> LoadResult:
        return self._require_tenant(tenant).result

    # ---- internals ----------------------------------------------------------

    def _require_tenant(self, name: str) -> Tenant:
        tenant = self.tenants.get(name)
        if tenant is None:
            raise KeyError(f"unknown tenant {name!r}")
        return tenant

    def _on_pool_updated(self, pool: Pool) -> None:
        self.pool_updates += 1
        bus = self.context.event_bus
        if bus.active:
            bus.post(PoolWeightsUpdated(
                time=self.context.now, pool=pool.name,
                weight=pool.weight, min_share=pool.min_share))

    def _on_arrival(self, queued: _QueuedJob) -> None:
        tenant = self.tenants[queued.tenant]
        bus = self.context.event_bus
        if bus.active:
            bus.post(TenantJobSubmitted(
                time=queued.arrival, tenant=queued.tenant,
                job_index=queued.index))
        pending = tenant.pending(queued.arrival)
        if (tenant.max_pending_jobs is not None
                and pending >= tenant.max_pending_jobs):
            tenant.result.shed_jobs += 1
            if bus.active:
                bus.post(TenantJobShed(
                    time=queued.arrival, tenant=queued.tenant,
                    job_index=queued.index, pending=pending))
            return
        backlog = self.pools.enqueue(queued.tenant, queued)
        if bus.active:
            bus.post(TenantJobAdmitted(
                time=queued.arrival, tenant=queued.tenant,
                job_index=queued.index, queued=backlog))
        self._schedule_dispatch()

    def _schedule_dispatch(self) -> None:
        """Arm one dispatch event at the current frontier.

        At most one dispatch event is ever pending: arrivals landing
        while a job runs coalesce into it, and the dispatcher re-arms
        itself after each job while backlog remains.
        """
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        kernel = self.context.cluster.kernel
        kernel.schedule(kernel.now, self._dispatch_one)

    def _dispatch_one(self) -> None:
        self._dispatch_scheduled = False
        selection = self.pools.select()
        if selection is None:
            return
        pool, queued = selection
        tenant = self.tenants[queued.tenant]
        kernel = self.context.cluster.kernel
        pool.running += 1
        start = kernel.now
        finish = queued.fn(queued.arrival, queued.index)
        pool.running -= 1
        self.pools.charge(pool, max(0.0, finish - start))
        tenant.record(queued.arrival, finish)
        bus = self.context.event_bus
        if bus.active:
            bus.post(TenantJobCompleted(
                time=finish, tenant=queued.tenant, job_index=queued.index,
                arrival=queued.arrival, finish=finish,
                delay=finish - queued.arrival))
        if self.pools.total_queued() > 0:
            self._schedule_dispatch()
