"""LocalityManager: data co-locality for dataset collections (§III-B).

A *namespace* groups the RDDs of one dynamic dataset collection.  All
RDDs registered under a namespace must use an equal partitioner
(co-partitioning); the manager then pins every *collection partition*
(the set of i-th partitions across the collection) to a stable set of
executors, which the DAG scheduler reports as the task's preferred
locations.  The delay scheduler does the rest: tasks of every RDD in the
collection land where their siblings' data already sits, so a cogroup or
join across the whole collection runs PROCESS_LOCAL with zero shuffle
reads.

A collection partition maps to a *set* of executors rather than one:
whenever a task runs remotely anyway (hotspot or contention), the data it
materializes there immediately makes that executor local for subsequent
tasks, so the manager registers it as a replica (§III-B); the
ReplicationManager later trims replicas on eviction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext
    from ..engine.partitioner import Partitioner
    from ..engine.rdd import RDD


class NamespaceError(ValueError):
    """Raised when namespace registration rules are violated."""


@dataclass
class Namespace:
    """State of one co-locality namespace."""

    name: str
    partitioner: "Partitioner"
    #: collection partition id -> executor ids holding it (primary first).
    placement: Dict[int, List[int]] = field(default_factory=dict)
    #: rdd ids registered under this namespace, in registration order.
    rdd_ids: List[int] = field(default_factory=list)


class LocalityManager:
    """Driver-side manager of co-locality namespaces."""

    def __init__(self, context: "StarkContext") -> None:
        self.context = context
        self._namespaces: Dict[str, Namespace] = {}
        #: rdd_id -> namespace name (for contention accounting).
        self._rdd_namespace: Dict[int, str] = {}

    # ---- registration -------------------------------------------------------

    def register(self, name: str, partitioner: "Partitioner") -> Namespace:
        """Create namespace ``name`` or validate the partitioner agrees.

        All RDDs under one namespace must use an equal partitioner —
        otherwise their "collection partitions" would not align and
        co-locality would be meaningless.
        """
        if not name:
            raise NamespaceError("namespace name must be non-empty")
        ns = self._namespaces.get(name)
        if ns is None:
            ns = Namespace(name=name, partitioner=partitioner)
            self._assign_initial_placement(ns)
            self._namespaces[name] = ns
            return ns
        if ns.partitioner != partitioner:
            raise NamespaceError(
                f"namespace {name!r} is registered with {ns.partitioner!r}; "
                f"got incompatible {partitioner!r} — all RDDs in a namespace "
                "must share one partitioner"
            )
        return ns

    def register_rdd(self, name: str, rdd: "RDD") -> None:
        ns = self._require(name)
        if rdd.partitioner != ns.partitioner:
            raise NamespaceError(
                f"rdd {rdd.name!r} partitioner {rdd.partitioner!r} does not "
                f"match namespace {name!r}"
            )
        ns.rdd_ids.append(rdd.rdd_id)
        self._rdd_namespace[rdd.rdd_id] = name
        if self.context.config.locality_enabled:
            self.context.group_manager.on_rdd_registered(name, rdd)

    def _assign_initial_placement(self, ns: Namespace) -> None:
        """Pin collection partitions round-robin over alive workers.

        Round-robin (rather than random) keeps load even when the number
        of partitions is a small multiple of the cluster size, matching
        the deliberate layout the paper argues for.
        """
        workers = self.context.cluster.alive_worker_ids()
        if not workers:
            raise RuntimeError("cannot create a namespace with no alive workers")
        for pid in range(ns.partitioner.num_partitions):
            ns.placement[pid] = [workers[pid % len(workers)]]

    # ---- queries ---------------------------------------------------------------

    def has_namespace(self, name: Optional[str]) -> bool:
        return name is not None and name in self._namespaces

    def get_namespace(self, name: str) -> Namespace:
        return self._require(name)

    def namespace_of_rdd(self, rdd_id: int) -> Optional[str]:
        return self._rdd_namespace.get(rdd_id)

    def rdds_in_namespace(self, name: str) -> List[int]:
        return list(self._require(name).rdd_ids)

    def preferred_executors(
        self, name: str, partition: int, group_id: Optional[int] = None
    ) -> List[int]:
        """Executors pinned for a collection partition (or its group).

        When the namespace is under extendable partitioning, placement is
        managed per *group* by the GroupManager; otherwise per partition.
        Dead executors are filtered out (best-effort co-locality).
        """
        ns = self._require(name)
        if not self.context.config.locality_enabled:
            return []
        group_placement = self.context.group_manager.preferred_executors(
            name, partition, group_id
        )
        placement = group_placement if group_placement is not None \
            else ns.placement.get(partition, [])
        cluster = self.context.cluster
        return [
            w for w in placement
            if w in cluster.workers and cluster.get_worker(w).alive
        ]

    # ---- replica management -----------------------------------------------------

    def add_replica(self, name: str, partition: int, worker_id: int) -> None:
        """Record that ``worker_id`` now holds collection ``partition``
        (a remote execution just materialized it there)."""
        ns = self._require(name)
        executors = ns.placement.setdefault(partition, [])
        if worker_id not in executors:
            executors.append(worker_id)
        self.context.group_manager.add_group_replica(name, partition, worker_id)

    def remove_replica(self, name: str, partition: int, worker_id: int) -> None:
        """Drop a replica, but never the last one (the primary home)."""
        ns = self._require(name)
        executors = ns.placement.get(partition, [])
        if worker_id in executors and len(executors) > 1:
            executors.remove(worker_id)

    def remove_executor(self, worker_id: int) -> None:
        """Purge a lost executor from every placement.

        A collection partition whose placement empties is re-homed onto
        the least-loaded alive worker (fewest placements after the
        purge), so preferred locations never dangle on a lost worker.
        """
        alive = [
            w for w in self.context.cluster.alive_worker_ids()
            if w != worker_id
        ]
        load: Dict[int, int] = {w: 0 for w in alive}
        for ns in self._namespaces.values():
            for executors in ns.placement.values():
                for w in executors:
                    if w in load:
                        load[w] += 1
        for ns in self._namespaces.values():
            for pid, executors in ns.placement.items():
                if worker_id in executors:
                    executors.remove(worker_id)
                if not executors and alive:
                    home = min(alive, key=lambda w: (load[w], w))
                    executors.append(home)
                    load[home] += 1

    def replica_count(self, name: str, partition: int) -> int:
        return len(self._require(name).placement.get(partition, []))

    # ---- contention accounting (for MCF, §III-C3) ---------------------------------

    def unique_collection_partitions_cached(self, worker_id: int) -> int:
        """Number of distinct (namespace, collection partition) pairs with
        at least one block cached on ``worker_id`` — Algorithm 1's sort key."""
        store = self.context.block_manager_master.stores.get(worker_id)
        if store is None:
            return 0
        seen: Set = set()
        for rdd_id, pid in store.block_ids():
            ns = self._rdd_namespace.get(rdd_id)
            if ns is not None:
                seen.add((ns, pid))
        return len(seen)

    # ---- internals -------------------------------------------------------------------

    def _require(self, name: str) -> Namespace:
        ns = self._namespaces.get(name)
        if ns is None:
            raise NamespaceError(f"unknown namespace {name!r}")
        return ns
