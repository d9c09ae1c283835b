"""Per-tenant cache quotas over the executor block stores.

Ownership is declared at the RDD level (``own(rdd_id, tenant)`` — the
:class:`~repro.service.service.DatasetService` does this for every
registered dataset and submitted job).  From then on the quota manager
tracks per-tenant resident bytes by listening to the
:class:`~repro.engine.block_manager.BlockManagerMaster`'s insert and
removal notifications, and enforces two rules:

* **Quota-aware admission** — before a block of an owned RDD is cached,
  :meth:`admit` (called from ``CacheManager.should_admit``) displaces
  the owning tenant's *own oldest* blocks until the newcomer fits under
  the tenant's quota (removals are posted with reason ``"quota"``), and
  refuses the insert outright if the tenant can never fit it.  Other
  tenants' blocks are never touched: intra-tenant eviction comes before
  cross-tenant eviction.
* **Quota-aware victim selection** — under *capacity* pressure, every
  store's :class:`~repro.cache.policy.ScoredPolicy` asks
  :meth:`preferred_victim` first (its ``nominee_fn``, bound by
  ``CacheManager.quota_victim``), which nominates the oldest resident
  block of any over-quota tenant before the policy's score may evict a
  compliant tenant's data.

Unowned RDDs (single-tenant operation, scratch data) are exempt, and a
quota of ``0`` means unlimited.  All bookkeeping is insertion-ordered
dicts — deterministic under identical traces.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.block_manager import Block, BlockManagerMaster

BlockId = Tuple[int, int]  # (rdd_id, partition_index)
_BlockKey = Tuple[int, BlockId]  # (worker_id, block_id)


class TenantCacheQuotas:
    """Tracks per-tenant cached bytes and enforces quotas."""

    def __init__(self, master: "BlockManagerMaster",
                 default_quota_bytes: float = 0.0) -> None:
        if default_quota_bytes < 0:
            raise ValueError(
                f"default quota must be >= 0: {default_quota_bytes}")
        self.master = master
        self.default_quota_bytes = default_quota_bytes
        self._owner: Dict[int, str] = {}
        self._quota: Dict[str, float] = {}
        self._usage: Dict[str, float] = {}
        #: Per-tenant resident blocks in insertion order (the
        #: intra-tenant eviction order).
        self._blocks: Dict[str, "OrderedDict[_BlockKey, float]"] = {}
        #: Blocks this manager displaced to make room under a quota.
        self.quota_evictions: int = 0
        #: Inserts refused because they could never fit under the quota.
        self.quota_rejections: int = 0
        #: Optional broker value ranking ``(worker_id, block_id,
        #: size_bytes) -> value``: when set (``StarkConfig.cache_broker``
        #: wires :meth:`repro.cache.broker.CacheBroker.block_value`),
        #: :meth:`admit` displaces the owning tenant's *lowest-value*
        #: block cluster-wide instead of its oldest.  Either way only
        #: the owning tenant's own blocks are candidates.  Must be a
        #: per-RDD weight over ``max(size_bytes, 1.0)``: the scan asks
        #: once per RDD at size 1 and divides by size itself.
        self.value_fn = None
        master.add_insert_listener(self._on_insert)
        master.add_block_event_listener(self._on_removed)

    # ---- configuration ------------------------------------------------------

    def own(self, rdd_id: int, tenant: str) -> None:
        """Declare ``tenant`` the owner of ``rdd_id``'s cached blocks.

        First declaration wins: a deduped dataset stays accounted to the
        tenant whose registration materialized it.
        """
        self._owner.setdefault(rdd_id, tenant)

    def set_quota(self, tenant: str, quota_bytes: float) -> None:
        if quota_bytes < 0:
            raise ValueError(f"quota must be >= 0: {quota_bytes}")
        self._quota[tenant] = quota_bytes

    def owner(self, rdd_id: int) -> Optional[str]:
        return self._owner.get(rdd_id)

    def quota_of(self, tenant: str) -> float:
        """Effective quota in bytes; 0 means unlimited."""
        return self._quota.get(tenant, self.default_quota_bytes)

    def usage(self, tenant: str) -> float:
        return self._usage.get(tenant, 0.0)

    # ---- block accounting (master listeners) --------------------------------

    def _on_insert(self, worker_id: int, block: "Block") -> None:
        tenant = self._owner.get(block.block_id[0])
        if tenant is None:
            return
        key = (worker_id, block.block_id)
        blocks = self._blocks.setdefault(tenant, OrderedDict())
        old = blocks.pop(key, 0.0)  # re-insert replaces in place
        blocks[key] = block.size_bytes
        self._usage[tenant] = (self._usage.get(tenant, 0.0)
                               - old + block.size_bytes)

    def _on_removed(self, worker_id: int, block_id: BlockId,
                    reason: str) -> None:
        tenant = self._owner.get(block_id[0])
        if tenant is None:
            return
        blocks = self._blocks.get(tenant)
        if blocks is None:
            return
        size = blocks.pop((worker_id, block_id), None)
        if size is not None:
            self._usage[tenant] = self._usage.get(tenant, 0.0) - size

    # ---- enforcement --------------------------------------------------------

    def admit(self, rdd_id: int, size_bytes: float) -> bool:
        """Gate one insert; may first displace the owner's own blocks.

        Returns ``False`` (and counts a rejection) when the block cannot
        fit under the owning tenant's quota even with every one of its
        resident blocks displaced.
        """
        tenant = self._owner.get(rdd_id)
        if tenant is None:
            return True
        quota = self.quota_of(tenant)
        if quota <= 0:
            return True
        if size_bytes > quota:
            self.quota_rejections += 1
            return False
        blocks = self._blocks.get(tenant)
        while (self._usage.get(tenant, 0.0) + size_bytes > quota
               and blocks):
            victim_worker, victim_id = self._displacement_victim(blocks)
            self.master.remove_block(victim_id, victim_worker,
                                     reason="quota")
            self.quota_evictions += 1
        if self._usage.get(tenant, 0.0) + size_bytes > quota:
            self.quota_rejections += 1
            return False
        return True

    def _displacement_victim(
            self, blocks: "OrderedDict[_BlockKey, float]") -> _BlockKey:
        """Which of the tenant's own resident blocks to displace:
        oldest-inserted classically, lowest broker value cluster-wide
        when a :attr:`value_fn` is attached (insertion order breaks
        ties)."""
        if self.value_fn is None:
            return next(iter(blocks))
        weights: Dict[int, float] = {}  # rdd_id -> value at size 1
        victim, lowest = None, None
        for key, size in blocks.items():  # strict <: first of equals wins
            weight = weights.get(key[1][0])
            if weight is None:
                weight = weights[key[1][0]] = self.value_fn(*key, 1.0)
            value = weight / max(size, 1.0)
            if lowest is None or value < lowest:
                victim, lowest = key, value
        return victim

    def preferred_victim(self, worker_id: int) -> Optional[BlockId]:
        """Under capacity pressure on ``worker_id``, nominate the oldest
        resident block owned by an over-quota tenant (``None`` defers to
        the store's base policy)."""
        for block_id in self.master.stores[worker_id]:
            tenant = self._owner.get(block_id[0])
            if tenant is None:
                continue
            quota = self.quota_of(tenant)
            if quota > 0 and self._usage.get(tenant, 0.0) > quota:
                return block_id
        return None
