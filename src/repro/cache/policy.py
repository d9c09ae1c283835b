"""Eviction policy of the per-executor block stores.

Each :class:`~repro.engine.block_manager.BlockStore` owns one policy
instance.  The store keeps the authoritative block map and byte
accounting; the policy only mirrors membership (via ``on_insert`` /
``on_access`` / ``on_remove``) and answers one question: *which resident
block should go next* (``choose_victim``).

There is one policy class, :class:`ScoredPolicy`: a min-heap of resident
blocks by ``(score, last_access, seq)``.  The four policies
:func:`make_policy` builds differ only in the score function and in
whether an access refreshes ``last_access``:

* ``lru`` — Spark's default, and this engine's historical behaviour: a
  constant score, so the least-recently-used block goes first.
* ``fifo`` — a constant score and accesses never refresh a block, so
  blocks go in insertion order.
* ``lrc`` — least-reference-count (after *Intermediate Data Caching
  Optimization for Multi-Stage and Parallel Big Data Frameworks*): the
  score is the number of remaining downstream references of the block's
  RDD, as tracked by the driver-side
  :class:`~repro.cache.reference_tracker.ReferenceTracker`.  Dead data
  (zero remaining references) goes first regardless of recency.
* ``cost`` — the score is :func:`value_score`,
  ``recompute_cost * (1 + remaining_references) / size``.  Under
  Spark-1.3 semantics a cache miss re-executes the whole narrow chain,
  so keeping expensive-to-rebuild, still-referenced blocks minimizes
  expected recovery work per byte of RAM.  (The ``1 +`` smoothing keeps
  recompute cost relevant when no references are declared.)

Tenant quotas take precedence over every score: a block named by the
policy's ``nominee_fn`` (an over-quota tenant's, bound by the
:class:`~repro.cache.manager.CacheManager`) goes before the heap
minimum.

All policies are deterministic: given identical insert/access/remove
traces (and identical reference/cost functions) they evict identical
sequences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

BlockId = Tuple[int, int]  # (rdd_id, partition_index)
Row = Tuple[float, int, int, BlockId]  # (score, last_access, seq, block_id)

#: Remaining-reference oracle: block id -> pending + declared references.
RefCountFn = Callable[[BlockId], int]
#: Recompute-cost oracle: rdd_id -> estimated seconds to rebuild one
#: partition from the nearest barrier (shuffle/checkpoint/source).
CostFn = Callable[[int], float]
#: Score of one resident block: (block_id, size_bytes) -> value; the
#: least-valued block is evicted first.
ScoreFn = Callable[[BlockId, float], float]


class CachePolicy:
    """Eviction-order strategy of one :class:`BlockStore`.

    Subclasses must keep their internal membership mirror in sync purely
    from the ``on_*`` notifications — the store never hands them the
    block map.
    """

    name: str = "base"

    def on_insert(self, block_id: BlockId, size_bytes: float) -> None:
        raise NotImplementedError

    def on_access(self, block_id: BlockId) -> None:
        raise NotImplementedError

    def on_remove(self, block_id: BlockId) -> None:
        raise NotImplementedError

    def choose_victim(self) -> BlockId:
        """Return the resident block to evict next.

        Only called when at least one block is resident.
        """
        raise NotImplementedError

    def mark_dirty(self, block_id: BlockId) -> None:
        """Announce that ``block_id``'s score may have *fallen*."""

    def clear(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


@dataclass
class _ScoredEntry:
    """Bookkeeping for one resident block."""

    seq: int           # insertion sequence number (FIFO tie-break)
    size_bytes: float
    last_access: int   # recency sequence number (LRU tie-break)
    row: Optional[Row] = None  # the block's live heap row, once ranked


class ScoredPolicy(CachePolicy):
    """Evict the minimum of a score function.

    Victims are the minimum by ``(score, last_access, seq)`` so identical
    traces always evict identically; the recency tie-break makes a
    constant score LRU (or FIFO, when accesses do not ``refresh``
    ``last_access``).  ``clock`` is the counter ``seq``/``last_access``
    are drawn from; policies sharing one (the cache broker's stores)
    keep that order total *across* stores.

    The order is held in a min-heap of :data:`Row` beside ``entries``
    under one contract — *rises are discovered, falls are announced*.
    Every resident block has one live row (``entry.row``) keyed at most
    its true key, or sits in the dirty set: an access or a rising score
    leaves the row stale-low and :meth:`min_row` re-ranks it on meeting
    it at the top; whoever *lowers* a score (the owner of the
    ``score_fn``'s oracles) must announce it with :meth:`mark_dirty`.
    Rows of removed, re-inserted or re-ranked blocks are skipped when
    popped.
    """

    #: Past ``_SLACK * resident + _SLACK_MIN`` rows + marks the heap is
    #: dropped for the next query to rebuild: idle stores stop growing.
    _SLACK, _SLACK_MIN = 2, 32

    def __init__(self, name: str, score_fn: ScoreFn, refresh: bool = True,
                 clock: Optional[Iterator[int]] = None) -> None:
        self.name = name
        self.score_fn = score_fn
        #: Whether an access refreshes ``last_access`` (not under ``fifo``).
        self.refresh = refresh
        #: Late-bound quota nominee, ``() -> block_id | None``: a block it
        #: names is evicted before the heap minimum.
        self.nominee_fn: Optional[Callable[[], Optional[BlockId]]] = None
        #: block_id -> entry, insertion-ordered like the store's blocks.
        self.entries: Dict[BlockId, _ScoredEntry] = {}
        self._seq = clock if clock is not None else itertools.count()
        self._heap: Optional[List[Row]] = None  # built by the next query
        self._dirty: Set[BlockId] = set()  # inserted or fallen since the last

    def on_insert(self, block_id: BlockId, size_bytes: float) -> None:
        seq = next(self._seq)
        self.entries[block_id] = _ScoredEntry(seq, size_bytes, seq)
        self.mark_dirty(block_id)

    def on_access(self, block_id: BlockId) -> None:
        if self.refresh:
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
        score = self.score_fn(block_id, entry.size_bytes)
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
        """The quota nominee if there is one, else the heap minimum."""
        if self.nominee_fn is not None:
            victim = self.nominee_fn()
            if victim is not None:
                return victim
        return self.min_row()[3]

    def clear(self) -> None:
        self.entries.clear()
        self._heap = None
        self._dirty.clear()

    def __len__(self) -> int:
        return len(self.entries)


def value_score(recompute_cost: float, references: float,
                size_bytes: float) -> float:
    """The canonical cache-value density of a block.

    ``recompute_cost * (1 + references) / size`` — the expected stage
    re-execution seconds a cached byte is saving.  This is the ``cost``
    policy's per-executor score generalized so the cluster-wide
    :class:`repro.cache.broker.CacheBroker` ranks every live block with
    the *same* value function, with ``references`` counted across all
    jobs instead of within one executor's horizon.
    """
    return recompute_cost * (1.0 + references) / max(size_bytes, 1.0)


def _constant(block_id: BlockId, size_bytes: float) -> float:
    return 0.0


POLICY_NAMES = ("lru", "fifo", "lrc", "cost")


def check_policy_name(name: str) -> None:
    """Reject a cache policy name :func:`make_policy` cannot build."""
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown cache policy {name!r}; pick from {POLICY_NAMES}")


def _score_fn(name: str, ref_fn: Optional[RefCountFn],
              cost_fn: Optional[CostFn]) -> ScoreFn:
    if name == "lrc":
        if ref_fn is None:
            raise ValueError("lrc needs a reference-count function")
        return lambda block_id, size_bytes: float(ref_fn(block_id))
    if name == "cost":
        if ref_fn is None or cost_fn is None:
            raise ValueError("cost needs reference and cost functions")
        return lambda block_id, size_bytes: value_score(
            cost_fn(block_id[0]), ref_fn(block_id), size_bytes)
    return _constant  # lru, fifo: recency alone decides


def make_policy(
    name: str,
    ref_fn: Optional[RefCountFn] = None,
    cost_fn: Optional[CostFn] = None,
    clock: Optional[Iterator[int]] = None,
) -> ScoredPolicy:
    """Instantiate the policy called ``name`` (see the module docstring).

    ``lrc`` requires ``ref_fn``; ``cost`` requires both oracles.
    Policies sharing a ``clock`` rank in one order across stores.
    """
    check_policy_name(name)
    return ScoredPolicy(name, _score_fn(name, ref_fn, cost_fn),
                        refresh=name != "fifo", clock=clock)


@dataclass
class CacheDefaults:
    """Process-wide defaults consumed by new :class:`StarkConfig` objects.

    The CLI sets these (``--cache-policy``) so every experiment driver —
    none of which thread cache options — runs under the selected policy.
    """

    policy: str = "lru"


DEFAULTS = CacheDefaults()


def set_default_policy(name: str) -> None:
    check_policy_name(name)
    DEFAULTS.policy = name
