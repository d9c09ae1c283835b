"""RDD dependencies: the edges of the lineage graph.

A narrow dependency reads the parent partition with the child's index
(map, filter, co-partitioned cogroup); wide (shuffle) dependencies
repartition data and form stage boundaries.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .partitioner import Partitioner
    from .rdd import RDD
    from .stage import Stage


class Dependency:
    """Base class; ``rdd`` is the parent the child depends on."""

    def __init__(self, rdd: "RDD") -> None:
        self.rdd = rdd


class OneToOneDependency(Dependency):
    """A narrow dependency: child partition *i* depends exactly on parent
    partition *i* (map, filter, co-partitioned cogroup)."""


class ShuffleDependency(Dependency):
    """A wide dependency: the parent's records are hash/range partitioned
    into ``partitioner.num_partitions`` buckets, persisted by map tasks,
    and fetched by reduce tasks.

    ``aggregator`` optionally combines values per key on the reduce side
    (``reduce_by_key``); ``map_side_combine`` additionally pre-aggregates
    in the map task, shrinking shuffle traffic.

    The dependency owns its shuffle-map stage (``map_stage``, built by the
    DAG scheduler on first use), so the stage id survives across jobs for
    as long as any RDD can reach the dependency; its map outputs are
    released when the dependency itself is (see ``repro.engine.shuffle``).
    """

    def __init__(
        self,
        rdd: "RDD",
        partitioner: "Partitioner",
        aggregator: Optional[Callable[[Any, Any], Any]] = None,
        map_side_combine: bool = False,
    ) -> None:
        super().__init__(rdd)
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine and aggregator is not None
        # Per-context allocation keeps repeated runs byte-identical.
        self.shuffle_id = next(rdd.context._shuffle_ids)
        self.map_stage: Optional["Stage"] = None

    def __repr__(self) -> str:
        return f"ShuffleDependency(shuffle_id={self.shuffle_id}, parent=rdd_{self.rdd.rdd_id})"
