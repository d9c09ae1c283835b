"""Cluster-wide cache broker: the single authority for cache value.

With ``StarkConfig.cache_broker`` on, eviction stops being a
per-executor decision.  Every block store runs a
:class:`~repro.cache.policy.ScoredPolicy` the driver-side
:class:`CacheBroker` created and keeps — the ``cost`` score with a
cluster-wide reference oracle and one clock shared by every store — so
the broker ranks **every live block in the cluster** through the
stores' own entries (:func:`repro.cache.policy.value_score`)::

    value = recompute_cost * (1 + cross_job_references) / size_bytes

where ``cross_job_references`` counts both the in-job/declared reads the
:class:`~repro.cache.reference_tracker.ReferenceTracker` knows about
*and* the running jobs whose lineage **prefix-matches** the block's RDD
(see below) — the cluster-level generalization of LRC the paper's
dynamic dataset collections need.

Two coordination mechanisms hang off this one ranking:

**Global eviction (the memory market).**  When a store cannot fit an
insert, it calls the broker's pressure reliever *before* evicting
locally.  The broker compares the local victim against the globally
cheapest block on any *other* worker; while a strictly cheaper remote
victim exists (and the local victim fits in the space it frees), the
broker evicts the remote block (reason ``"broker"``) and **migrates**
the local victim into the freed space via
:meth:`~repro.engine.block_manager.BlockManagerMaster.migrate_block` —
"evict remote block B and move yours there".  Only when the local
victim is already the cluster-wide cheapest does eviction fall through
to the store's normal local path.  Migrations and remote evictions are
modeled as asynchronous background transfers: they cost no task time,
only the recompute the evicted block's next reader will pay.

**Cross-job lineage-prefix sharing.**  At job submission the broker
computes Merkle-style per-node prefix fingerprints
(:func:`repro.engine.lineage.prefix_fingerprints`) of the job's lineage
and registers every *cached* node as a provider of its prefix hash.
When another job evaluates a node with the same hash and misses
locally, the evaluator asks :meth:`equivalent_for` and serves the
partition from the provider's cached block (free locally, serde +
network cost remotely) instead of recomputing — tenant B's scan runs
off tenant A's cached subgraph even though their RDD ids differ.  A
running job *pins* the providers it may read; each live pin counts as
one cross-job reference (:meth:`pin_count`) until the job completes
or aborts.

Tenant quotas (:class:`~repro.service.quotas.TenantCacheQuotas`)
constrain the ranking exactly as they do without a broker: each store's
quota nominee (``ScoredPolicy.nominee_fn``) names over-quota tenants'
blocks first, the market stands aside while it does, and quota
displacement uses the broker's value ranking to drop the owning
tenant's own lowest-value block **cluster-wide** — never another
tenant's.

All state lives in insertion-ordered dicts with total-order tie-breaks,
so runs are byte-identical for identical inputs.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from .policy import Row, ScoredPolicy, make_policy, value_score

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.block_manager import Block, BlockManagerMaster, BlockStore
    from ..engine.rdd import RDD
    from ..engine.stage import Stage
    from .manager import CacheManager

BlockId = Tuple[int, int]  # (rdd_id, partition_index)


class CacheBroker:
    """Driver-side authority for cluster-wide cache value decisions."""

    def __init__(self, manager: "CacheManager") -> None:
        self.manager = manager
        self.master: "BlockManagerMaster | None" = None
        #: worker_id -> the policy its store runs (see :meth:`policy_for`).
        self._policies: Dict[int, ScoredPolicy] = {}
        self._clock = count()
        self._relieving = False

        # -- prefix sharing state -------------------------------------------
        #: rdd_id -> Merkle prefix hash (every lineage node ever submitted).
        self._prefix_of: Dict[int, str] = {}
        #: prefix hash -> cached provider rdd_ids in registration order.
        self._providers: Dict[str, List[int]] = {}
        #: provider rdd_id -> job_ids currently pinning it.
        self._pins: Dict[int, Set[int]] = {}
        #: job_id -> provider rdd_ids it pinned at submission.
        self._job_pins: Dict[int, List[int]] = {}

        # -- counters (all deterministic) -----------------------------------
        #: Remote blocks evicted by the broker to host a migrated victim.
        self.broker_evictions: int = 0
        #: Local victims the broker migrated instead of evicting.
        self.broker_migrations: int = 0
        #: Partitions served from an equivalent RDD's cached block.
        self.prefix_hits: int = 0
        #: Prefix hits that paid a remote (serde + network) read.
        self.prefix_remote_hits: int = 0
        #: Equivalence lookups that found no live provider.
        self.prefix_misses: int = 0

    # ---- wiring -------------------------------------------------------------

    def attach(self, master: "BlockManagerMaster") -> None:
        """Bind to the block manager master and hook every store's
        pressure reliever (new stores hook via
        :meth:`on_worker_registered`)."""
        self.master = master
        for wid in master.stores:
            self.on_worker_registered(wid)

    def on_worker_registered(self, worker_id: int) -> None:
        assert self.master is not None
        self.master.stores[worker_id].pressure_reliever = self.relieve_pressure

    def policy_for(self, worker_id: int) -> ScoredPolicy:
        """The ranking policy of ``worker_id``'s store, created once per
        worker id (an idempotent re-registration must not fork it).  All
        of them draw ``seq``/``last_access`` from one clock, so
        ``(value, last_access, seq)`` is a total order across workers."""
        policy = self._policies.get(worker_id)
        if policy is None:
            policy = self._policies[worker_id] = make_policy(
                "cost", self.cross_job_refcount,
                self.manager.estimate_recompute_cost, clock=self._clock)
        return policy

    def resident_count(self, worker_id: int) -> int:
        return len(self._policies[worker_id])

    # ---- the value function -------------------------------------------------

    def cross_job_refcount(self, block_id: BlockId) -> float:
        """Reference count across *all* jobs: the tracker's pending +
        declared reads plus running jobs pinning the RDD through a
        lineage-prefix match."""
        return (self.manager.tracker.block_ref_count(block_id)
                + self.pin_count(block_id[0]))

    def block_value(self, worker_id: int, block_id: BlockId,
                    size_bytes: Optional[float] = None) -> float:
        """``recompute_cost × (1 + cross_job_refcount) / size`` for one
        block (the per-byte seconds this block's residency is saving)."""
        if size_bytes is None:
            entry = self._policies[worker_id].entries.get(block_id)
            size_bytes = entry.size_bytes if entry is not None else 1.0
        cost = self.manager.estimate_recompute_cost(block_id[0])
        return value_score(cost, self.cross_job_refcount(block_id),
                           size_bytes)

    def accounted_bytes(self) -> float:
        """Broker-ledger resident bytes (``math.fsum`` so the trace
        reconciliation row compares exactly against the store sizes)."""
        return math.fsum(entry.size_bytes
                         for policy in self._policies.values()
                         for entry in policy.entries.values())

    def top_blocks(self, n: int = 10) -> List[Tuple[float, int, BlockId]]:
        """The ``n`` most valuable resident blocks as
        ``(value, worker_id, block_id)``, highest first (deterministic
        tie-break on worker then block id)."""
        scored = [
            (self.block_value(wid, bid, entry.size_bytes), wid, bid)
            for wid in sorted(self._policies)
            for bid, entry in self._policies[wid].entries.items()
        ]
        scored.sort(key=lambda t: (-t[0], t[1], t[2]))
        return scored[:n]

    # ---- global eviction ----------------------------------------------------

    def choose_local_victim(self, worker_id: int) -> BlockId:
        """The block ``worker_id`` should drop first — its store's own
        policy decides: an over-quota tenant's oldest block when one is
        resident (the quota constraint), else the lowest-value block."""
        assert self.master is not None
        return self.master.stores[worker_id].policy.choose_victim()

    def relieve_pressure(self, store: "BlockStore",
                         incoming: "Block") -> None:
        """Memory-market arbitration before ``store`` evicts locally.

        While the insert still overflows and a strictly cheaper victim
        exists on another worker (with room for our local victim once
        evicted), evict the remote block cluster-wide (reason
        ``"broker"``) and migrate the local victim into the freed
        space.  Whatever overflow remains falls through to the store's
        normal local eviction loop."""
        master = self.master
        if master is None or self._relieving:
            return
        if incoming.size_bytes > store.capacity_bytes:
            return  # store will reject it outright
        self._relieving = True
        try:
            while (store.used_bytes + incoming.size_bytes
                   > store.capacity_bytes and len(store)):
                wid = store.worker_id
                if self.manager.quota_victim(wid) is not None:
                    return  # quota enforcement wants a local eviction
                # Quota ruled out: rank on the heap alone.
                policy = self._policies[wid]
                local_id = policy.min_row()[3]
                local_entry = policy.entries[local_id]
                local_value = self.block_value(wid, local_id,
                                               local_entry.size_bytes)
                move = self._cheapest_remote_slot(
                    wid, local_entry.size_bytes, local_value)
                if move is None:
                    return  # local victim is the cluster-wide cheapest
                remote_wid, remote_id, remote_value = move
                master.remove_block(remote_id, remote_wid, reason="broker")
                self.broker_evictions += 1
                self._post_broker_evicted(remote_wid, remote_id, wid,
                                          remote_value)
                if master.migrate_block(local_id, src=wid, dst=remote_wid):
                    self.broker_migrations += 1
                    self._post_broker_migrated(local_id, wid, remote_wid,
                                               local_entry.size_bytes,
                                               local_value)
        finally:
            self._relieving = False

    def _cheapest_remote_slot(
        self, local_wid: int, needed_bytes: float, local_value: float,
    ) -> Optional[Tuple[int, BlockId, float]]:
        """The cheapest block on any *other* worker that is strictly
        cheaper than the local victim and whose eviction frees enough
        room to host it (no cascading evictions at the destination).

        A store's minimum at or above ``local_value`` rules it out; one
        that frees enough room is its candidate; else the store is scanned."""
        assert self.master is not None
        best: Optional[Tuple[Row, int]] = None
        for wid in sorted(self._policies):
            policy = self._policies[wid]
            if (wid == local_wid or wid not in self.master.stores
                    or not policy.entries):
                continue
            row: Optional[Row] = policy.min_row()
            dst = self.master.stores[wid]
            headroom = dst.capacity_bytes - dst.used_bytes
            if (row[0] < local_value and headroom
                    + policy.entries[row[3]].size_bytes < needed_bytes):
                row = min(((self.block_value(wid, bid, entry.size_bytes),
                            entry.last_access, entry.seq, bid)
                           for bid, entry in policy.entries.items()
                           if headroom + entry.size_bytes >= needed_bytes),
                          default=None)  # the cheapest block that fits
            if (row is not None and row[0] < local_value
                    and (best is None or row < best[0])):
                best = (row, wid)
        if best is None:
            return None
        return best[1], best[0][3], best[0][0]

    # ---- cross-job lineage-prefix sharing -----------------------------------

    def on_job_submit(self, job_id: int, final_rdd: "RDD",
                      stages: Iterable["Stage"]) -> None:
        """Register the job's lineage-prefix fingerprints: cached nodes
        become providers of their prefix hash; matching providers from
        *other* lineage positions get pinned for the job's lifetime."""
        from ..engine.lineage import ancestors, prefix_fingerprints

        nodes = ancestors(final_rdd, include_self=True)
        hashes = prefix_fingerprints(final_rdd)
        self._prefix_of.update(hashes)
        for node in nodes:
            if node.cached:
                providers = self._providers.setdefault(
                    hashes[node.rdd_id], [])
                if node.rdd_id not in providers:
                    providers.append(node.rdd_id)
        pinned: List[int] = []
        for node in nodes:
            for provider in self._providers.get(hashes[node.rdd_id], ()):
                if provider != node.rdd_id and provider not in pinned:
                    pinned.append(provider)
                    self._pins.setdefault(provider, set()).add(job_id)
        self._job_pins[job_id] = pinned

    def on_job_complete(self, job_id: int) -> None:
        """Release the job's pins (on completion or abort)."""
        for provider in self._job_pins.pop(job_id, []):
            jobs = self._pins.get(provider)
            if jobs is not None:
                jobs.discard(job_id)
                if not jobs:
                    self._pins.pop(provider, None)
                self.manager.announce_fall(provider)

    def pin_count(self, rdd_id: int) -> int:
        """Running jobs whose lineage prefix-matches ``rdd_id``."""
        return len(self._pins.get(rdd_id, ()))

    def equivalent_for(self, rdd_id: int) -> Optional[int]:
        """A *different* RDD with an identical lineage prefix that has
        cached blocks right now, or ``None``.  Providers are tried in
        registration order (deterministic)."""
        prefix = self._prefix_of.get(rdd_id)
        if prefix is None:
            return None
        assert self.master is not None
        candidates = [p for p in self._providers.get(prefix, ())
                      if p != rdd_id]
        for provider in candidates:
            if self.master.has_cached_partitions(provider):
                return provider
        if candidates:
            self.prefix_misses += 1
        return None

    def note_prefix_hit(self, remote: bool) -> None:
        self.prefix_hits += 1
        if remote:
            self.prefix_remote_hits += 1

    # ---- drain order ---------------------------------------------------------

    def migration_order(self, worker_id: int) -> List[BlockId]:
        """``worker_id``'s blocks hottest-first: the order in which a
        drain of the worker would spend a migration budget."""
        return sorted(
            self._policies[worker_id].entries,
            key=lambda bid: (-self.block_value(worker_id, bid), bid))

    # ---- event posting ------------------------------------------------------

    def _bus(self):
        bus = getattr(self.manager.context, "event_bus", None)
        return bus if bus is not None and bus.active else None

    def _now(self) -> float:
        return self.manager.context.cluster.clock.now

    def _post_broker_evicted(self, worker_id: int, block_id: BlockId,
                             requested_by: int, value: float) -> None:
        bus = self._bus()
        if bus is not None:
            from ..obs.events import BrokerEvicted

            bus.post(BrokerEvicted(
                time=self._now(), worker_id=worker_id,
                rdd_id=block_id[0], partition=block_id[1],
                requested_by=requested_by, value=value))

    def _post_broker_migrated(self, block_id: BlockId, src: int, dst: int,
                              size_bytes: float, value: float) -> None:
        bus = self._bus()
        if bus is None:
            return
        from ..obs.events import BlockCached, BrokerMigrated

        bus.post(BrokerMigrated(
            time=self._now(), rdd_id=block_id[0], partition=block_id[1],
            src_worker=src, dst_worker=dst, size_bytes=size_bytes,
            value=value))
        # The migration's destination insert does not go through the
        # compute path, so keep the trace's cached-bytes counter honest
        # (the source side already posted BlockEvicted("migrated")).
        bus.post(BlockCached(
            time=self._now(), worker_id=dst, rdd_id=block_id[0],
            partition=block_id[1], size_bytes=size_bytes))
