"""The eviction policies as they were before they became one class.

``repro.cache.policy`` used to define one class per eviction order —
``LRUPolicy`` / ``FIFOPolicy`` over an ``OrderedDict``, ``LRCPolicy`` /
``CostAwarePolicy`` over the scored heap — plus the ``QuotaAwarePolicy``
wrapper every store was built with.  They are now one ``ScoredPolicy``
that differs only in its score function and whether an access refreshes
recency, with the quota nominee built in.  The classes below are copied
verbatim from the last version that had them, as the reference
``tests/cache/test_policy_oracle.py`` holds the one class to: identical
traces must evict identical sequences.
"""

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Dict, Iterator, List, Optional, Set

from repro.cache.policy import (BlockId, CachePolicy, CostFn, RefCountFn, Row,
                                value_score)


class LRUPolicy(CachePolicy):
    """Evict the least-recently-used block (inserts count as uses)."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[BlockId, None]" = OrderedDict()

    def on_insert(self, block_id: BlockId, size_bytes: float) -> None:
        self._order[block_id] = None
        self._order.move_to_end(block_id)

    def on_access(self, block_id: BlockId) -> None:
        if block_id in self._order:
            self._order.move_to_end(block_id)

    def on_remove(self, block_id: BlockId) -> None:
        self._order.pop(block_id, None)

    def choose_victim(self) -> BlockId:
        return next(iter(self._order))

    def clear(self) -> None:
        self._order.clear()

    def __len__(self) -> int:
        return len(self._order)


class FIFOPolicy(LRUPolicy):
    """Evict in insertion order; accesses never refresh a block."""

    name = "fifo"

    def on_access(self, block_id: BlockId) -> None:
        pass


@dataclass
class _ScoredEntry:
    """Bookkeeping for one resident block under a scored policy."""

    seq: int           # insertion sequence number (FIFO tie-break)
    size_bytes: float
    last_access: int   # recency sequence number (LRU tie-break)
    row: Optional[Row] = None  # the block's live heap row, once ranked


class _ScoredPolicy(CachePolicy):
    """Base for policies that evict the minimum of a score function.

    Victims are the minimum by ``(score, last_access, seq)`` so identical
    traces always evict identically; the recency tie-break makes the
    scored policies degrade to LRU when their oracles are uninformative
    (all scores equal).  ``clock`` is the counter ``seq``/``last_access``
    are drawn from; policies sharing one (the cache broker's stores)
    keep that order total *across* stores.

    The order is held in a min-heap of :data:`Row` beside ``entries``
    under one contract — *rises are discovered, falls are announced*.
    Every resident block has one live row (``entry.row``) keyed at most
    its true key, or sits in the dirty set: an access or a rising score
    leaves the row stale-low and :meth:`min_row` re-ranks it on meeting
    it at the top; whoever *lowers* a score (the owner of the ``ref_fn``
    / ``cost_fn``) must announce it with :meth:`mark_dirty`.  Rows of
    removed, re-inserted or re-ranked blocks are skipped when popped.
    """

    #: Past ``_SLACK * resident + _SLACK_MIN`` rows + marks the heap is
    #: dropped for the next query to rebuild: idle stores stop growing.
    _SLACK, _SLACK_MIN = 2, 32

    def __init__(self, clock: Optional[Iterator[int]] = None) -> None:
        #: block_id -> entry, insertion-ordered like the store's blocks.
        self.entries: Dict[BlockId, _ScoredEntry] = {}
        self._seq = clock if clock is not None else itertools.count()
        self._heap: Optional[List[Row]] = None  # built by the next query
        self._dirty: Set[BlockId] = set()  # inserted or fallen since the last

    def score(self, block_id: BlockId, entry: _ScoredEntry) -> float:
        raise NotImplementedError

    def on_insert(self, block_id: BlockId, size_bytes: float) -> None:
        seq = next(self._seq)
        self.entries[block_id] = _ScoredEntry(seq, size_bytes, seq)
        self.mark_dirty(block_id)

    def on_access(self, block_id: BlockId) -> None:
        entry = self.entries.get(block_id)
        if entry is not None:
            entry.last_access = next(self._seq)

    def on_remove(self, block_id: BlockId) -> None:
        if self.entries.pop(block_id, None) is not None:
            self._trim()

    def mark_dirty(self, block_id: BlockId) -> None:
        if self._heap is not None:
            self._dirty.add(block_id)
            self._trim()

    def _trim(self) -> None:
        heap = self._heap
        if heap is not None and (len(heap) + len(self._dirty) > self._SLACK
                                 * len(self.entries) + self._SLACK_MIN):
            self._heap = None
            self._dirty.clear()

    def _rank(self, block_id: BlockId, entry: _ScoredEntry) -> Row:
        score = self.score(block_id, entry)
        if score != score:  # NaN equals nothing: min_row would never settle
            raise ValueError(f"cache score of block {block_id} is NaN")
        return (score, entry.last_access, entry.seq, block_id)

    def min_row(self) -> Row:
        """The resident block least by ``(score, last_access, seq)``."""
        entries = self.entries
        heap = self._heap
        if heap is None:
            heap = self._heap = [self._rank(*item) for item in entries.items()]
            for row in heap:
                entries[row[3]].row = row
            heapify(heap)
        for block_id in self._dirty:
            entry = entries.get(block_id)
            if entry is not None:
                row = self._rank(block_id, entry)
                if entry.row is None or row < entry.row:
                    entry.row = row
                    heappush(heap, row)
        self._dirty.clear()
        while True:
            row = heap[0]
            entry = entries.get(row[3])
            if entry is None or entry.row is not row:
                heappop(heap)  # removed, re-inserted or re-ranked since
                continue
            current = self._rank(row[3], entry)
            if current == row:
                return row
            entry.row = current  # rose (or was read) since it was ranked
            heapreplace(heap, current)

    def choose_victim(self) -> BlockId:
        return self.min_row()[3]

    def clear(self) -> None:
        self.entries.clear()
        self._heap = None
        self._dirty.clear()

    def __len__(self) -> int:
        return len(self.entries)


class LRCPolicy(_ScoredPolicy):
    """Least-reference-count eviction.

    A block's score is the number of not-yet-executed consumers of its
    RDD (in-job pending reads plus driver-declared future jobs).  Blocks
    nothing will read again score zero and are reclaimed first; ties
    fall back to LRU.
    """

    name = "lrc"

    def __init__(self, ref_fn: RefCountFn,
                 clock: Optional[Iterator[int]] = None) -> None:
        super().__init__(clock)
        self._ref_fn = ref_fn

    def score(self, block_id: BlockId, entry: _ScoredEntry) -> float:
        return float(self._ref_fn(block_id))


class CostAwarePolicy(_ScoredPolicy):
    """Evict the block with the least recompute-value per byte.

    ``score = recompute_cost * (1 + references) / size`` — the expected
    stage re-execution time a cached byte is saving.  Cheap-to-rebuild
    or dead blocks yield their RAM to expensive, still-referenced ones.
    """

    name = "cost"

    def __init__(self, ref_fn: RefCountFn, cost_fn: CostFn,
                 clock: Optional[Iterator[int]] = None) -> None:
        super().__init__(clock)
        self._ref_fn = ref_fn
        self._cost_fn = cost_fn

    def score(self, block_id: BlockId, entry: _ScoredEntry) -> float:
        cost = self._cost_fn(block_id[0])
        refs = self._ref_fn(block_id)
        return value_score(cost, refs, entry.size_bytes)


class QuotaAwarePolicy(CachePolicy):
    """Wrapper adding per-tenant quota awareness to any inner policy.

    On capacity pressure, blocks owned by **over-quota** tenants are
    evicted first (oldest-inserted of theirs, deterministically); only
    when no tenant is over its quota does victim choice fall through to
    the wrapped policy.  This is the *cross-tenant* half of quota
    enforcement — the intra-tenant half (a tenant displacing its own
    blocks before touching anyone else's) lives in
    :class:`repro.service.quotas.TenantCacheQuotas`, which this wrapper
    consults through ``quotas_fn``.

    ``quotas_fn`` is late-bound (returns ``None`` until a service layer
    attaches quotas), so stores built at context creation pick up quota
    awareness the moment a :class:`~repro.service.DatasetService` turns
    it on.
    """

    def __init__(self, inner: CachePolicy, worker_id: int,
                 quotas_fn: Callable[[], Optional[object]]) -> None:
        #: The wrapped policy: the store's recency + ranking ledger.
        self.inner = inner
        self._worker_id = worker_id
        self._quotas_fn = quotas_fn
        self.name = inner.name

    def on_insert(self, block_id: BlockId, size_bytes: float) -> None:
        self.inner.on_insert(block_id, size_bytes)

    def on_access(self, block_id: BlockId) -> None:
        self.inner.on_access(block_id)

    def on_remove(self, block_id: BlockId) -> None:
        self.inner.on_remove(block_id)

    def mark_dirty(self, block_id: BlockId) -> None:
        self.inner.mark_dirty(block_id)

    def choose_victim(self) -> BlockId:
        quotas = self._quotas_fn()
        if quotas is not None:
            victim = quotas.preferred_victim(self._worker_id)
            if victim is not None:
                return victim
        return self.inner.choose_victim()

    def clear(self) -> None:
        self.inner.clear()

    def __len__(self) -> int:
        return len(self.inner)
