"""GroupManager: drives partition-group elasticity per namespace (§III-C2).

The manager owns one :class:`~repro.core.group_tree.GroupTree` per
namespace that uses an :class:`ExtendablePartitioner`, and keeps a
group→executor mapping that the LocalityManager consults for preferred
locations.

Size accounting follows the paper: collection-partition sizes are summed
across the N most recent RDDs of the namespace (configurable window).
Whenever a group's accumulated size exceeds ``max_group_mem_size`` it is
split; whenever two sibling groups together fall below
``min_group_mem_size`` they merge.  Splits keep one child on the old
executor set and place the other child on the least-loaded executors —
"splitting a group also splits the corresponding local executors", which
minimizes data movement because cached partitions of the retained half
never move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from .extendable_partitioner import ExtendablePartitioner
from .group_tree import GroupNode, GroupTree

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext
    from ..engine.rdd import RDD


@dataclass
class NamespaceGroups:
    """Per-namespace elasticity state."""

    tree: GroupTree
    #: group_id -> executor ids (primary first).
    placement: Dict[int, List[int]] = field(default_factory=dict)
    #: rdd_id -> partition count of the most recent RDDs counted toward
    #: group sizes, oldest first.  The count is all sizing reads of an
    #: RDD, so the window keeps it rather than the RDD itself, which the
    #: application may drop while it is still in the window.
    recent_rdds: Dict[int, int] = field(default_factory=dict)
    splits: int = 0
    merges: int = 0


class GroupManager:
    """Extendable-group bookkeeping for all namespaces."""

    def __init__(self, context: "StarkContext") -> None:
        self.context = context
        self._state: Dict[str, NamespaceGroups] = {}

    # ---- setup ------------------------------------------------------------------

    def enable(self, namespace: str, partitioner: ExtendablePartitioner) -> None:
        """Turn on extendable grouping for ``namespace``."""
        if namespace in self._state:
            return
        tree = GroupTree(partitioner.num_groups, partitioner.partitions_per_group)
        state = NamespaceGroups(tree=tree)
        workers = self.context.cluster.alive_worker_ids()
        for i, leaf in enumerate(tree.leaves()):
            state.placement[leaf.group_id] = [workers[i % len(workers)]]
        self._state[namespace] = state

    def is_enabled(self, namespace: str) -> bool:
        return namespace in self._state

    def on_rdd_registered(self, namespace: str, rdd: "RDD") -> None:
        """Called by the LocalityManager for every RDD joining the
        namespace; auto-enables grouping for extendable partitioners and
        tracks the size window."""
        if isinstance(rdd.partitioner, ExtendablePartitioner):
            self.enable(namespace, rdd.partitioner)
        if namespace in self._state:
            self.on_rdd_noted(namespace, rdd)

    # ---- size accounting (the reportRDD API, §III-E) --------------------------------

    def report_rdd(self, rdd: "RDD") -> List[str]:
        """Recompute group sizes including ``rdd`` and rebalance.

        Returns a human-readable log of the split/merge operations taken
        (used by tests and the benchmark narrative).
        """
        namespace = rdd.namespace
        if namespace is None or namespace not in self._state:
            return []
        self.on_rdd_noted(namespace, rdd)
        return self.rebalance(namespace)

    def on_rdd_noted(self, namespace: str, rdd: "RDD") -> None:
        """Count ``rdd`` toward the namespace's size window (once), keeping
        only the ``group_size_window`` most recent RDDs."""
        recent = self._state[namespace].recent_rdds
        if rdd.rdd_id not in recent:
            recent[rdd.rdd_id] = rdd.num_partitions
            window = self.context.config.group_size_window
            while len(recent) > window:
                del recent[next(iter(recent))]

    def partition_sizes(self, namespace: str) -> Dict[int, float]:
        """Collection-partition size: bytes per fine partition, summed
        over the namespace's recent RDDs (cached blocks + recorded stats)."""
        state = self._state[namespace]
        sizes: Dict[int, float] = {}
        for rdd_id, num_partitions in state.recent_rdds.items():
            stats = self.context.rdd_stats(rdd_id)
            for pid in stats._sized_partitions:
                sizes[pid] = sizes.get(pid, 0.0)
            # Per-partition detail: read from block manager if cached,
            # otherwise approximate uniformly from recorded total size.
            per_part = self._per_partition_bytes(rdd_id, num_partitions)
            for pid, nbytes in per_part.items():
                sizes[pid] = sizes.get(pid, 0.0) + nbytes
        return sizes

    def _per_partition_bytes(self, rdd_id: int,
                             num_partitions: int) -> Dict[int, float]:
        bmm = self.context.block_manager_master
        out: Dict[int, float] = {}
        for wid, store in bmm.stores.items():
            for (rid, pid) in store.block_ids():
                if rid == rdd_id:
                    block = store.peek((rid, pid))
                    if block is not None:
                        out[pid] = max(out.get(pid, 0.0), block.size_bytes)
        if out:
            return out
        # Nothing cached: fall back to recorded materialization sizes.
        stats = self.context.rdd_stats(rdd_id)
        if stats.size_bytes <= 0:
            return {}
        uniform = stats.size_bytes / max(1, num_partitions)
        return {pid: uniform for pid in range(num_partitions)}

    def group_sizes(self, namespace: str) -> Dict[int, float]:
        state = self._state[namespace]
        part_sizes = self.partition_sizes(namespace)
        out: Dict[int, float] = {}
        for leaf in state.tree.leaves():
            out[leaf.group_id] = sum(part_sizes.get(p, 0.0) for p in leaf.partitions)
        return out

    # ---- rebalancing ---------------------------------------------------------------------

    def rebalance(self, namespace: str) -> List[str]:
        """Split oversized groups, merge undersized sibling pairs.

        Iterates to a fixed point; each split/merge is O(leaves) and only
        rewrites mappings — data movement happens lazily at the next
        action (tasks land on the new executors and recompute/cache there).
        """
        state = self._state[namespace]
        config = self.context.config
        actions: List[str] = []
        changed = True
        while changed:
            changed = False
            part_sizes = self.partition_sizes(namespace)
            for leaf in state.tree.leaves():
                size = sum(part_sizes.get(p, 0.0) for p in leaf.partitions)
                if size > config.max_group_mem_size and leaf.num_partitions >= 2:
                    self._split(state, leaf)
                    actions.append(
                        f"split group [{leaf.start},{leaf.end}) size={size:.0f}B"
                    )
                    changed = True
                    break
            if changed:
                continue
            for leaf in state.tree.leaves():
                sibling = leaf.sibling()
                if sibling is None or not sibling.is_leaf:
                    continue
                size = sum(
                    part_sizes.get(p, 0.0)
                    for p in leaf.partitions + sibling.partitions
                )
                if size < config.min_group_mem_size:
                    self._merge(state, leaf, sibling)
                    actions.append(
                        f"merge groups [{leaf.start},{leaf.end})+"
                        f"[{sibling.start},{sibling.end}) size={size:.0f}B"
                    )
                    changed = True
                    break
        state.tree.check_invariants()
        return actions

    def _split(self, state: NamespaceGroups, leaf: GroupNode) -> None:
        left, right = state.tree.split(leaf)
        old_placement = state.placement.pop(leaf.group_id, [])
        # Keep the left child where the data already lives; give the right
        # child the least-loaded executor (skipping the old one if possible).
        state.placement[left.group_id] = list(old_placement) or \
            [self._least_loaded_executor(set())]
        avoid = set(old_placement)
        state.placement[right.group_id] = [self._least_loaded_executor(avoid)]
        state.splits += 1

    def _merge(self, state: NamespaceGroups, left: GroupNode,
               right: GroupNode) -> None:
        # ``left``/``right`` might arrive in either order.
        first, second = (left, right) if left.start < right.start else (right, left)
        parent = state.tree.merge(first, second)
        placement_first = state.placement.pop(first.group_id, [])
        placement_second = state.placement.pop(second.group_id, [])
        merged = list(dict.fromkeys(placement_first + placement_second))
        state.placement[parent.group_id] = merged or \
            [self._least_loaded_executor(set())]
        state.merges += 1

    def _least_loaded_executor(self, avoid: set) -> int:
        """Alive executor with the fewest placed groups (then least cached
        bytes), preferring ones outside ``avoid``."""
        counts: Dict[int, int] = {w: 0 for w in self.context.cluster.alive_worker_ids()}
        for state in self._state.values():
            for executors in state.placement.values():
                for w in executors:
                    if w in counts:
                        counts[w] += 1
        bmm = self.context.block_manager_master

        def load_key(w: int):
            return (w in avoid, counts[w], bmm.used_bytes(w), w)

        return min(counts, key=load_key)

    # ---- queries used by the schedulers -------------------------------------------------------

    def groups_for(self, namespace: str) -> Optional[List[GroupNode]]:
        """Active groups of a namespace, or ``None`` when grouping is off
        (tasks then go one-per-partition, plain Spark style)."""
        state = self._state.get(namespace)
        if state is None:
            return None
        return state.tree.leaves()

    def preferred_executors(
        self, namespace: str, partition: int, group_id: Optional[int] = None
    ) -> Optional[List[int]]:
        """Executor set pinned for the group owning ``partition``.

        Returns ``None`` when the namespace has no group state, letting
        the LocalityManager fall back to per-partition placement.
        """
        state = self._state.get(namespace)
        if state is None:
            return None
        if group_id is not None:
            placement = state.placement.get(group_id)
            if placement is not None:
                return list(placement)
        if not 0 <= partition < state.tree.num_partitions:
            return []
        leaf = state.tree.group_of_partition(partition)
        return list(state.placement.get(leaf.group_id, []))

    def remove_executor(self, worker_id: int) -> None:
        """Purge a lost executor from every group placement.

        Groups whose executor set empties are re-homed via
        :meth:`_least_loaded_executor`, mirroring how splits place their
        new child — so group locality survives losing a worker.
        """
        for state in self._state.values():
            for group_id, executors in state.placement.items():
                if worker_id in executors:
                    executors.remove(worker_id)
        for state in self._state.values():
            for group_id, executors in state.placement.items():
                if not executors:
                    executors.append(self._least_loaded_executor({worker_id}))

    def add_group_replica(self, namespace: str, partition: int,
                          worker_id: int) -> None:
        state = self._state.get(namespace)
        if state is None:
            return
        if not 0 <= partition < state.tree.num_partitions:
            return
        leaf = state.tree.group_of_partition(partition)
        executors = state.placement.setdefault(leaf.group_id, [])
        if worker_id not in executors:
            executors.append(worker_id)

    def stats(self, namespace: str) -> Dict[str, int]:
        state = self._state[namespace]
        return {
            "groups": state.tree.num_groups(),
            "splits": state.splits,
            "merges": state.merges,
        }
