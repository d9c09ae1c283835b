"""CacheManager: the driver-side owner of all caching policy decisions.

One instance lives on every :class:`~repro.engine.context.StarkContext`
and ties the subsystem together:

* builds one :class:`~repro.cache.policy.CachePolicy` per executor store
  (``policy_for_worker`` is handed to the
  :class:`~repro.engine.block_manager.BlockManagerMaster` as a factory),
  wiring the lineage-aware policies to the shared
  :class:`~repro.cache.reference_tracker.ReferenceTracker` and to the
  recompute-cost estimator;
* gates every insert through the
  :class:`~repro.cache.admission.AdmissionController`;
* receives the DAGScheduler's job/stage lifecycle hooks and forwards
  them to the tracker (which may auto-unpersist drained RDDs).

The recompute-cost estimate walks the narrow chain above an RDD, summing
the per-RDD transformation delays the cost model has observed
(:class:`~repro.engine.compute.RDDStats`), and stops at barriers —
checkpointed RDDs, shuffle inputs, or cached ancestors that still hold
blocks.  It is the same quantity the CheckpointOptimizer reasons about
(§III-D1), reused as an eviction weight — memoised per RDD, since victim
choice compares it far more often than it changes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, TYPE_CHECKING

from .admission import AdmissionController
from .broker import CacheBroker
from .policy import (CachePolicy, FIFOPolicy, LRUPolicy, QuotaAwarePolicy,
                     make_policy)
from .reference_tracker import ReferenceTracker

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext
    from ..engine.rdd import RDD
    from ..engine.stage import Stage
    from ..service.quotas import TenantCacheQuotas


class CacheManager:
    """Central cache-policy coordinator of one context."""

    def __init__(self, context: "StarkContext") -> None:
        self.context = context
        config = context.config
        self.policy_name: str = config.cache_policy
        self.admission = AdmissionController(
            min_cost_seconds=config.cache_admission_min_cost
        )
        #: Cluster-wide cache broker (``StarkConfig.cache_broker``);
        #: ``None`` keeps classic per-executor eviction.  The broker
        #: supplies every store's policy, so ``cache_policy`` is not
        #: consulted while it is on.
        self.broker: "CacheBroker | None" = (
            CacheBroker(self) if config.cache_broker else None)
        # The recency policies have no score: nobody to tell of a fall.
        scored = self.broker is not None or self.policy_name not in (
            LRUPolicy.name, FIFOPolicy.name)
        self.tracker = ReferenceTracker(
            auto_unpersist=config.cache_auto_unpersist,
            unpersist_fn=self._auto_unpersist,
            fall_fn=self.announce_fall if scored else None,
        )
        if self.broker is not None:
            self.tracker.set_external_pin_fn(self.broker.pin_count)
        self._quotas: "TenantCacheQuotas | None" = None
        #: rdd_id -> memoised :meth:`estimate_recompute_cost`.
        self._cost_memo: Dict[int, float] = {}
        #: rdd_id -> memoised roots whose walk visited (or stopped at) it.
        self._cost_roots: Dict[int, Set[int]] = {}

    @property
    def quotas(self) -> "TenantCacheQuotas | None":
        """Per-tenant quota enforcer, attached by the service layer
        (:class:`repro.service.quotas.TenantCacheQuotas`); ``None``
        means single-tenant operation with no quota gating."""
        return self._quotas

    @quotas.setter
    def quotas(self, quotas: "TenantCacheQuotas | None") -> None:
        self._quotas = quotas
        if quotas is not None and self.broker is not None:
            # Broker mode: quota displacement drops the owning tenant's
            # *lowest-value block cluster-wide*, not its oldest.
            quotas.value_fn = self.broker.block_value

    # ---- policy construction ----------------------------------------------

    def policy_for_worker(self, worker_id: int) -> CachePolicy:
        """Build this context's configured policy for one block store —
        or, with the cluster-wide broker on, the broker's cost-aware
        policy for that worker (:meth:`CacheBroker.policy_for`).

        Either way it is wrapped in a :class:`QuotaAwarePolicy` whose
        quota lookup is late-bound to :attr:`quotas`, so attaching a
        service layer retrofits quota-aware victim selection onto stores
        that already exist.
        """
        if self.broker is not None:
            inner = self.broker.policy_for(worker_id)
        else:
            inner = make_policy(
                self.policy_name,
                ref_fn=self.tracker.block_ref_count,
                cost_fn=self.estimate_recompute_cost,
            )
        return QuotaAwarePolicy(inner, worker_id, lambda: self.quotas)

    # ---- declarations (application API) ------------------------------------

    def expect(self, rdd: "RDD", uses: int = 1) -> None:
        """Declare that ``uses`` more jobs will read ``rdd`` — the
        knowledge LRC/cost eviction and auto-unpersist act on."""
        self.tracker.expect(rdd.rdd_id, uses)

    # ---- admission ----------------------------------------------------------

    def should_admit(self, rdd_id: int, size_bytes: float) -> bool:
        if self.quotas is not None and not self.quotas.admit(rdd_id, size_bytes):
            return False
        if self.admission.min_cost_seconds <= 0:
            self.admission.accepted += 1
            return True
        return self.admission.should_admit(
            self.estimate_recompute_cost(rdd_id)
        )

    # ---- recompute-cost estimation ------------------------------------------

    def estimate_recompute_cost(self, rdd_id: int) -> float:
        """Seconds to rebuild one partition of ``rdd_id`` from the
        nearest barrier, per the delays observed so far.

        Unobserved RDDs (never materialized) estimate zero — the
        admission controller then refuses them only under a positive
        threshold, which is the conservative direction.
        """
        cost = self._cost_memo.get(rdd_id)
        if cost is None:
            cost = self._cost_memo[rdd_id] = self._walk_recompute_cost(rdd_id)
        return cost

    def _walk_recompute_cost(self, rdd_id: int) -> float:
        context = self.context
        master = context.block_manager_master
        total = 0.0
        seen = set()
        stack = [rdd_id]
        root = True
        while stack:
            rid = stack.pop()
            if rid in seen:
                continue
            seen.add(rid)
            if not root:
                if context.checkpoint_store.has_checkpoint(rid):
                    continue  # rebuilt by a cheap checkpoint read
                rdd = context.get_rdd(rid)
                if rdd.cached and master.has_cached_partitions(rid):
                    continue  # served from some executor's RAM
            else:
                rdd = context.get_rdd(rid)
                root = False
            total += context.rdd_stats(rid).max_partition_delay
            for dep in rdd.narrow_dependencies():
                stack.append(dep.rdd.rdd_id)
        for rid in seen:
            self._cost_roots.setdefault(rid, set()).add(rdd_id)
        return total

    def invalidate_cost(self, rdd_id: int) -> None:
        """Forget every memoised estimate whose walk read ``rdd_id`` —
        its delay estimate rose, its resident set went empty <->
        non-empty, it was checkpointed, or its ``cached`` flag flipped."""
        for root in self._cost_roots.pop(rdd_id, ()):
            if self._cost_memo.pop(root, None) is not None:
                self.announce_fall(root)

    def announce_fall(self, rdd_id: int) -> None:
        """Tell every store holding a block of ``rdd_id`` that its score
        may have fallen: a reference or pin drained, or its cost moved."""
        master = self.context.block_manager_master
        for worker_id, block_id in master.blocks_of(rdd_id):
            master.stores[worker_id].policy.mark_dirty(block_id)

    # ---- DAGScheduler lifecycle hooks ---------------------------------------

    def on_job_submit(self, job_id: int, final_rdd: "RDD",
                      stages: Iterable["Stage"]) -> None:
        self.tracker.on_job_submit(job_id, final_rdd, stages)
        if self.broker is not None:
            self.broker.on_job_submit(job_id, final_rdd, stages)

    def on_stage_complete(self, job_id: int, stage_id: int) -> None:
        self.tracker.on_stage_complete(job_id, stage_id)

    def on_job_complete(self, job_id: int) -> None:
        # Tracker first (it may defer an auto-unpersist on a broker
        # pin), then the broker releases this job's pins and flushes
        # any deferrals that just became safe.
        self.tracker.on_job_complete(job_id)
        if self.broker is not None:
            self.broker.on_job_complete(job_id)

    # ---- internals -----------------------------------------------------------

    def _auto_unpersist(self, rdd_id: int) -> None:
        """Drop a fully-drained RDD cluster-wide (declared uses hit 0)."""
        try:
            self.context.get_rdd(rdd_id).cached = False
        except KeyError:
            pass
        self.context.block_manager_master.remove_rdd(rdd_id)
