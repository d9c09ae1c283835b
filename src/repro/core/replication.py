"""Contention-aware replication (§III-C3).

Computational demand is not uniform across collection partitions and it
changes over time (the Times-Square-on-a-weekend-evening effect).  Stark
replicates collection partitions *on demand*:

* the **signal** to replicate is a failed locality attempt — the task
  scheduler launching a task at locality level ANY means the partition is
  a hotspot (its pinned executors are saturated) or its executors host too
  many partitions;
* replication itself is free-riding: the remote execution materializes
  and caches the partition on the new worker, so the manager merely
  records the new replica in the LocalityManager;
* **de-replication** happens when cache eviction drops a replica's
  blocks: the manager unregisters the executor so future scheduling stops
  steering there, preventing the cascade of evictions that blind
  replication causes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext
    from ..engine.task import Task


@dataclass
class ReplicationEvent:
    """One replicate / de-replicate decision, for diagnostics."""

    time: float
    kind: str  # "replicate" | "dereplicate"
    namespace: str
    partition: int
    worker_id: int


class ReplicationManager:
    """Tracks per-collection-partition replicas and their churn."""

    def __init__(self, context: "StarkContext") -> None:
        self.context = context
        self.events: List[ReplicationEvent] = []
        #: (namespace, collection pid) -> replica launch counters.
        self.hotspot_counts: Dict[Tuple[str, int], int] = {}

    # ---- signals ---------------------------------------------------------------

    def on_remote_launch(self, task: "Task", worker_id: int, time: float) -> None:
        """A task ran at ANY level: record the hotspot signal.

        The actual replica registration (LocalityManager placement) is
        done by the context hook; here we keep demand statistics that the
        benchmarks and ablations inspect.
        """
        rdd = task.stage.rdd
        namespace = rdd.namespace
        if namespace is None or not self.context.locality_manager.has_namespace(namespace):
            return
        key = (namespace, task.partition)
        self.hotspot_counts[key] = self.hotspot_counts.get(key, 0) + 1
        self.events.append(
            ReplicationEvent(time, "replicate", namespace, task.partition, worker_id)
        )

    def on_block_evicted(self, worker_id: int, block_id: Tuple[int, int]) -> None:
        """A block left ``worker_id``'s store (any reason on the block
        master's removal channel): de-replicate the collection partition
        from the worker that just lost its data."""
        rdd_id, pid = block_id
        manager = self.context.locality_manager
        namespace = manager.namespace_of_rdd(rdd_id)
        if namespace is None:
            return
        # Only de-replicate when no other RDD of the namespace still has
        # this collection partition cached on the worker.
        store = self.context.block_manager_master.stores.get(worker_id)
        if store is not None:
            for other_rdd in manager.rdds_in_namespace(namespace):
                if (other_rdd, pid) in store:
                    return
        manager.remove_replica(namespace, pid, worker_id)
        self.events.append(
            ReplicationEvent(
                self.context.now, "dereplicate", namespace, pid, worker_id
            )
        )

    # ---- diagnostics ---------------------------------------------------------------

    def replication_count(self, namespace: str, partition: int) -> int:
        return self.context.locality_manager.replica_count(namespace, partition)

    def hottest_partitions(self, top: int = 5) -> List[Tuple[Tuple[str, int], int]]:
        return sorted(
            self.hotspot_counts.items(), key=lambda kv: kv[1], reverse=True
        )[:top]
