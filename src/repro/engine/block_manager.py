"""Block managers: per-executor in-memory caches with pluggable eviction.

Every worker owns a :class:`BlockStore` holding deserialized cached RDD
partitions, bounded by a fraction of the worker's RAM (Spark's
``storage.memoryFraction``).  Which resident block an over-full store
drops is decided by its :class:`~repro.cache.policy.ScoredPolicy` — the
least-scored block, where the score is constant for LRU (the default)
and FIFO, and a remaining-reference count or recompute value for the
``lrc`` / ``cost`` policies selectable through
``StarkConfig.cache_policy`` (see ``repro.cache`` and
``docs/CACHING.md``).  The driver-side :class:`BlockManagerMaster`
tracks, for every block, the set of workers caching it — the cluster
view the schedulers consult for locality.

Crucially, the engine follows Spark-1.3 semantics that the paper builds
on: a task never *fetches* a remote cached block.  If the block is not in
the local store, the partition is recomputed from the beginning of the
stage (shuffle outputs / source data).  The block master is therefore only
used for *placement* decisions, not for data transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from ..cache.policy import CachePolicy, make_policy

BlockId = Tuple[int, int]  # (rdd_id, partition_index)


@dataclass
class Block:
    """A cached partition: the records, their heap bytes (what the store
    accounts) and their serialized bytes (what a task reading the block
    sizes derived partitions from).  Every block the engine caches or
    migrates carries its serialized bytes; ``None`` is left only for
    blocks built by hand in tests and probes, which a reader walks."""

    block_id: BlockId
    records: list
    size_bytes: float
    serialized_bytes: Optional[int] = None


class BlockStore:
    """Bounded memory store of one executor.

    ``capacity_bytes`` bounds the sum of cached block sizes; inserting
    beyond it evicts blocks in the order the store's eviction policy
    chooses (LRU when none is given).  A block larger than the whole
    store is refused (Spark drops such blocks too).
    """

    def __init__(
        self,
        worker_id: int,
        capacity_bytes: float,
        policy: Optional[CachePolicy] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bytes}")
        self.worker_id = worker_id
        self.capacity_bytes = capacity_bytes
        self.policy: CachePolicy = policy if policy is not None else make_policy("lru")
        self._blocks: Dict[BlockId, Block] = {}
        self.used_bytes: float = 0.0
        self.eviction_count: int = 0
        #: Optional cluster-level relief hook ``(store, incoming_block)``
        #: consulted *before* the local eviction loop — the cache broker
        #: (``repro.cache.broker``) may evict a cheaper block on another
        #: worker and migrate this store's victim there instead of
        #: dropping it.  Whatever pressure remains afterwards is relieved
        #: by normal local eviction.
        self.pressure_reliever: Optional[Callable[["BlockStore", Block], None]] = None

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[BlockId]:
        """Resident block ids in insertion order, without a copy."""
        return iter(self._blocks)

    def block_ids(self) -> List[BlockId]:
        return list(self._blocks)

    def get(self, block_id: BlockId) -> Optional[Block]:
        """Return the block and record the access with the policy."""
        block = self._blocks.get(block_id)
        if block is not None:
            self.policy.on_access(block_id)
        return block

    def peek(self, block_id: BlockId) -> Optional[Block]:
        """Return the block without touching the eviction order."""
        return self._blocks.get(block_id)

    def put(self, block: Block) -> Optional[List[Block]]:
        """Insert ``block``, evicting policy-chosen blocks as needed.

        Returns the list of evicted blocks (a previously cached version
        of the same block id is replaced, not evicted).  A block that
        cannot fit even in an empty store is rejected: the store is left
        untouched — an older version of the id stays — and the result
        is ``None``.
        """
        if block.size_bytes > self.capacity_bytes:
            return None
        evicted: List[Block] = []
        old = self._blocks.pop(block.block_id, None)
        if old is not None:
            self.used_bytes -= old.size_bytes
            self.policy.on_remove(block.block_id)
        if (self.pressure_reliever is not None and self._blocks
                and self.used_bytes + block.size_bytes > self.capacity_bytes):
            self.pressure_reliever(self, block)
        while self.used_bytes + block.size_bytes > self.capacity_bytes and self._blocks:
            victim_id = self.policy.choose_victim()
            victim = self._blocks.pop(victim_id)
            self.policy.on_remove(victim_id)
            self.used_bytes -= victim.size_bytes
            self.eviction_count += 1
            evicted.append(victim)
        self._blocks[block.block_id] = block
        self.policy.on_insert(block.block_id, block.size_bytes)
        self.used_bytes += block.size_bytes
        return evicted

    def remove(self, block_id: BlockId) -> Optional[Block]:
        block = self._blocks.pop(block_id, None)
        if block is not None:
            self.policy.on_remove(block_id)
            self.used_bytes -= block.size_bytes
        return block

    def clear(self) -> List[Block]:
        """Drop everything (worker failure); returns the lost blocks."""
        lost = list(self._blocks.values())
        self._blocks.clear()
        self.policy.clear()
        self.used_bytes = 0.0
        return lost


#: ``listener(worker_id, block_id, reason)`` where reason is one of
#: ``"capacity"`` | ``"explicit"`` | ``"worker_lost"`` | ``"migrated"``
#: | ``"quota"`` | ``"broker"`` — the one removal channel: every block
#: that leaves a store is reported here exactly once, and eviction
#: metrics, de-replication, tenant usage and ``BlockEvicted`` events all
#: hang off it.  ``"capacity"`` marks a victim the store's policy chose
#: to make room for an insert; ``"migrated"`` marks the source-side
#: removal of a block that was copied to another store first (a
#: broker migration), i.e. *not* a loss of cached
#: state; ``"quota"`` marks an intra-tenant eviction by the
#: per-tenant cache quota enforcer (``repro.service.quotas``);
#: ``"broker"`` marks a cluster-wide eviction the cache broker ordered
#: to host a more valuable migrated block (``repro.cache.broker``).
BlockEventListener = Callable[[int, BlockId, str], None]

#: ``listener(worker_id, block)`` fired for every block successfully
#: inserted into a store — the accounting channel per-tenant quota
#: tracking hangs off (sizes are on the :class:`Block`).
InsertListener = Callable[[int, Block], None]


class BlockManagerMaster:
    """Driver-side registry of block locations across all executors.

    Alongside the per-block location sets it maintains a per-RDD index
    (``rdd_id -> partitions cached somewhere``) so the schedulers'
    hot-path query :meth:`cached_partitions_of` is O(partitions of that
    RDD) instead of O(total blocks in the cluster).
    """

    def __init__(
        self,
        worker_ids: Sequence[int],
        capacity_for: Callable[[int], float],
        policy_factory: Optional[Callable[[int], CachePolicy]] = None,
    ) -> None:
        self.stores: Dict[int, BlockStore] = {
            wid: BlockStore(
                wid,
                capacity_for(wid),
                policy=policy_factory(wid) if policy_factory is not None else None,
            )
            for wid in worker_ids
        }
        self._locations: Dict[BlockId, Set[int]] = {}
        #: rdd_id -> partition indices with at least one live location.
        self._rdd_index: Dict[int, Set[int]] = {}
        self._block_event_listeners: List[BlockEventListener] = []
        self._insert_listeners: List[InsertListener] = []
        #: ``fn(rdd_id)``: that RDD's resident set went empty <-> non-empty.
        self.residency_listener: Optional[Callable[[int], None]] = None

    # ---- listeners --------------------------------------------------------

    def add_block_event_listener(self, listener: BlockEventListener) -> None:
        """Register a reasoned removal callback: fired as
        ``listener(worker_id, block_id, reason)`` for every block that
        leaves a store, with the removal cause attached."""
        self._block_event_listeners.append(listener)

    def _notify_block_event(self, worker_id: int, block_id: BlockId,
                            reason: str) -> None:
        for listener in self._block_event_listeners:
            listener(worker_id, block_id, reason)

    def add_insert_listener(self, listener: InsertListener) -> None:
        """Register a callback fired as ``listener(worker_id, block)``
        for every successful store insert (including migration copies)."""
        self._insert_listeners.append(listener)

    def _notify_inserted(self, worker_id: int, block: Block) -> None:
        for listener in self._insert_listeners:
            listener(worker_id, block)

    # ---- data path ---------------------------------------------------------

    def get_local(self, worker_id: int, block_id: BlockId) -> Optional[Block]:
        return self.stores[worker_id].get(block_id)

    def put(self, worker_id: int, block: Block) -> Optional[List[Block]]:
        """Cache ``block`` on ``worker_id``; maintain the location index.

        Returns the capacity victims, or ``None`` when the store
        rejected the block (indexes and listeners untouched)."""
        evicted = self.stores[worker_id].put(block)
        if evicted is None:
            return None
        self._add_location(block.block_id, worker_id)
        self._notify_inserted(worker_id, block)
        for victim in evicted:
            self._drop_location(victim.block_id, worker_id)
            self._notify_block_event(worker_id, victim.block_id, "capacity")
        return evicted

    # ---- cluster view -------------------------------------------------------

    def locations(self, block_id: BlockId) -> Set[int]:
        return set(self._locations.get(block_id, ()))

    def is_cached_anywhere(self, block_id: BlockId) -> bool:
        return bool(self._locations.get(block_id))

    def is_cached_on(self, worker_id: int, block_id: BlockId) -> bool:
        return block_id in self.stores[worker_id]

    def cached_partitions_of(self, rdd_id: int) -> Set[int]:
        return set(self._rdd_index.get(rdd_id, ()))

    def has_cached_partitions(self, rdd_id: int) -> bool:
        """Truthiness of :meth:`cached_partitions_of` without the copy."""
        return rdd_id in self._rdd_index

    def blocks_of(self, rdd_id: int) -> Iterator[Tuple[int, BlockId]]:
        """Resident replicas of ``rdd_id`` as ``(worker_id, block_id)``."""
        for pid in self._rdd_index.get(rdd_id, ()):
            block_id = (rdd_id, pid)
            for worker_id in self._locations[block_id]:
                yield worker_id, block_id

    def used_bytes(self, worker_id: int) -> float:
        return self.stores[worker_id].used_bytes

    def total_cached_bytes(self) -> float:
        return sum(store.used_bytes for store in self.stores.values())

    # ---- membership and migration ---------------------------------------------

    def register_worker(
        self,
        worker_id: int,
        capacity_bytes: float,
        policy: Optional[CachePolicy] = None,
    ) -> None:
        """Add a block store for a worker.

        Idempotent: re-registering an existing worker (e.g. a restart
        after a kill, where the store object survived) is a no-op, so
        callers need not distinguish brand-new from returning workers.
        """
        if worker_id in self.stores:
            return
        self.stores[worker_id] = BlockStore(worker_id, capacity_bytes, policy=policy)

    def migrate_block(self, block_id: BlockId, src: int, dst: int) -> bool:
        """Copy a cached block from ``src`` to ``dst``, then drop the
        source replica.

        The insert happens *before* the source removal so the block never
        has zero locations mid-migration.  The source-side removal is
        reported with reason ``"migrated"`` (not a capacity eviction — it
        must not count against cache-pressure metrics).  Returns False
        without touching ``src`` when ``dst`` rejects the block (larger
        than the whole store).
        """
        if dst == src:
            return False
        block = self.stores[src].peek(block_id)
        if block is None:
            return False
        if block_id in self.stores[dst]:
            # Already replicated at the destination; just drop the source.
            self._remove_migrated_source(block_id, src)
            return True
        copy = Block(block_id=block.block_id, records=block.records,
                     size_bytes=block.size_bytes,
                     serialized_bytes=block.serialized_bytes)
        if self.put(dst, copy) is None:
            return False  # destination rejected it
        self._remove_migrated_source(block_id, src)
        return True

    def _remove_migrated_source(self, block_id: BlockId, src: int) -> None:
        if self.stores[src].remove(block_id) is not None:
            self._drop_location(block_id, src)
            self._notify_block_event(src, block_id, "migrated")

    # ---- invalidation ---------------------------------------------------------

    def remove_block(self, block_id: BlockId, worker_id: Optional[int] = None,
                     reason: str = "explicit") -> None:
        """Uncache a block from one worker, or everywhere if unspecified.

        ``reason`` labels the removal for the observability layer:
        ``"explicit"`` (unpersist, the default) or ``"quota"``
        (intra-tenant quota enforcement).
        """
        targets = [worker_id] if worker_id is not None else sorted(self.locations(block_id))
        for wid in targets:
            if self.stores[wid].remove(block_id) is not None:
                self._drop_location(block_id, wid)
                self._notify_block_event(wid, block_id, reason)

    def remove_rdd(self, rdd_id: int) -> None:
        """Uncache every partition of an RDD (``RDD.unpersist``)."""
        doomed = [(rdd_id, pid) for pid in sorted(self._rdd_index.get(rdd_id, ()))]
        for bid in doomed:
            self.remove_block(bid)

    def lose_worker(self, worker_id: int) -> List[BlockId]:
        """Drop all blocks of a failed worker; return the lost block ids."""
        lost = self.stores[worker_id].clear()
        lost_ids = []
        for block in lost:
            self._drop_location(block.block_id, worker_id)
            self._notify_block_event(worker_id, block.block_id, "worker_lost")
            lost_ids.append(block.block_id)
        return lost_ids

    def _add_location(self, block_id: BlockId, worker_id: int) -> None:
        self._locations.setdefault(block_id, set()).add(worker_id)
        first = block_id[0] not in self._rdd_index
        self._rdd_index.setdefault(block_id[0], set()).add(block_id[1])
        if first and self.residency_listener is not None:
            self.residency_listener(block_id[0])

    def _drop_location(self, block_id: BlockId, worker_id: int) -> None:
        locs = self._locations.get(block_id)
        if locs is not None:
            locs.discard(worker_id)
            if not locs:
                self._locations.pop(block_id, None)
                pids = self._rdd_index.get(block_id[0])
                if pids is not None:
                    pids.discard(block_id[1])
                    if not pids:
                        self._rdd_index.pop(block_id[0], None)
                        if self.residency_listener is not None:
                            self.residency_listener(block_id[0])
