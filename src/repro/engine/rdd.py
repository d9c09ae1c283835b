"""The RDD abstraction: immutable partitioned datasets with lineage.

This mirrors Spark's RDD contract:

* an RDD knows its :class:`~repro.engine.dependency.Dependency` list,
  its partition count, and optionally the
  :class:`~repro.engine.partitioner.Partitioner` that produced it;
* ``compute(pid, ctx)`` produces the records of one partition, pulling
  parent data (and paying simulated cost) through the evaluation context;
* transformations are lazy — nothing runs until an action
  (``count``/``collect``) submits a job through the context.

Pair-RDD operations (``reduce_by_key``, ``cogroup``, ``join``,
``partition_by``, ``locality_partition_by``) live directly on ``RDD`` and
expect records shaped as ``(key, value)`` tuples, like PySpark.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, TYPE_CHECKING

from .dependency import Dependency, OneToOneDependency, ShuffleDependency
from .partitioner import Partitioner

if TYPE_CHECKING:  # pragma: no cover
    from .compute import EvalContext
    from .context import StarkContext


class RDD:
    """An immutable, partitioned, lineage-tracked dataset."""

    def __init__(
        self,
        context: "StarkContext",
        dependencies: Sequence[Dependency],
        num_partitions: int,
        partitioner: Optional[Partitioner] = None,
        name: str = "",
    ) -> None:
        if num_partitions <= 0:
            raise ValueError(f"RDD needs at least one partition: {num_partitions}")
        self.context = context
        self.rdd_id = context.new_rdd_id()
        self.dependencies: List[Dependency] = list(dependencies)
        self.num_partitions = int(num_partitions)
        self.partitioner = partitioner
        self.name = name or type(self).__name__
        self._cached = False
        self.checkpointed = False
        # Co-locality namespace (paper §III-B): set by locality_partition_by
        # and automatically carried through narrow transformations.
        self.namespace: Optional[str] = None
        for dep in self.dependencies:
            if isinstance(dep, OneToOneDependency) and dep.rdd.namespace is not None:
                self.namespace = dep.rdd.namespace
                break
        context.register_rdd(self)

    # ---- core contract -----------------------------------------------------

    def compute(self, pid: int, ctx: "EvalContext") -> list:
        """Materialize partition ``pid``; subclasses must implement."""
        raise NotImplementedError

    def parents(self) -> List["RDD"]:
        return [dep.rdd for dep in self.dependencies]

    def shuffle_dependencies(self) -> List[ShuffleDependency]:
        return [d for d in self.dependencies if isinstance(d, ShuffleDependency)]

    def narrow_dependencies(self) -> List[OneToOneDependency]:
        return [d for d in self.dependencies
                if isinstance(d, OneToOneDependency)]

    # ---- persistence ---------------------------------------------------------

    @property
    def cached(self) -> bool:
        """Whether materialized partitions are kept in executor memory.
        Assignable; a flip moves the recompute cost of every descendant
        that stops (or stopped) its lineage walk here.  Setting it makes
        the context hold the RDD until :meth:`unpersist`, since cached
        blocks are never dropped behind the application's back."""
        return self._cached

    @cached.setter
    def cached(self, value: bool) -> None:
        if value != self._cached:
            self._cached = value
            if value:
                self.context.cached_rdds[self.rdd_id] = self
            self.context.cache_manager.invalidate_cost(self.rdd_id)

    def cache(self) -> "RDD":
        """Mark this RDD for in-memory caching on first materialization."""
        self.cached = True
        return self

    def unpersist(self) -> "RDD":
        """Drop cached blocks of this RDD cluster-wide."""
        self.cached = False
        self.context.block_manager_master.remove_rdd(self.rdd_id)
        self.context.cached_rdds.pop(self.rdd_id, None)
        return self

    def force_checkpoint(self) -> "RDD":
        """Materialize and persist this RDD to reliable storage *now*.

        This is the paper's ``RDD.forceCheckpoint`` API (§III-E): unlike
        stock Spark, it works after the RDD has been materialized, which
        is what lets the CheckpointOptimizer pick RDDs a posteriori.
        """
        self.context.checkpoint_rdd(self)
        return self

    # ---- narrow transformations -------------------------------------------------

    def map(self, fn: Callable[[Any], Any], name: str = "",
            preserves_partitioning: bool = False) -> "RDD":
        """Element-wise transform.  Pass ``preserves_partitioning=True``
        only when ``fn`` provably keeps every record's key unchanged."""
        from .transforms import MappedRDD

        return MappedRDD(self, fn, name=name,
                         preserves_partitioning=preserves_partitioning)

    def filter(self, predicate: Callable[[Any], bool], name: str = "") -> "RDD":
        from .transforms import FilteredRDD

        return FilteredRDD(self, predicate, name=name)

    def flat_map(self, fn: Callable[[Any], Iterable[Any]], name: str = "") -> "RDD":
        from .transforms import FlatMappedRDD

        return FlatMappedRDD(self, fn, name=name)

    # ---- pair transformations (records must be (key, value) tuples) -----------

    def map_values(self, fn: Callable[[Any], Any], name: str = "") -> "RDD":
        return self.map(lambda kv: (kv[0], fn(kv[1])),
                        name=name or "map_values",
                        preserves_partitioning=True)

    def partition_by(self, partitioner: Partitioner, name: str = "") -> "RDD":
        """Shuffle into ``partitioner``'s layout (Spark's ``partitionBy``)."""
        from .shuffled import ShuffledRDD

        if self.partitioner is not None and self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner, name=name)

    def locality_partition_by(
        self, partitioner: Partitioner, namespace: str, name: str = ""
    ) -> "RDD":
        """Shuffle into ``partitioner``'s layout *and* register the result
        under a co-locality ``namespace`` (paper §III-B / §III-E).

        All RDDs sharing a namespace must use an equal partitioner; the
        LocalityManager pins each collection partition to a stable
        executor set, so later ``cogroup``/``join`` across the collection
        find every input partition cached on the same worker.
        """
        from .shuffled import LocalityShuffledRDD

        return LocalityShuffledRDD(self, partitioner, namespace, name=name)

    def reduce_by_key(
        self,
        fn: Callable[[Any, Any], Any],
        partitioner: Optional[Partitioner] = None,
        name: str = "",
    ) -> "RDD":
        from .partitioner import HashPartitioner
        from .shuffled import ShuffledRDD
        from .transforms import MapPartitionsRDD

        if partitioner is None:
            partitioner = self.partitioner or HashPartitioner(self.num_partitions)
        if self.partitioner is not None and self.partitioner == partitioner:
            # Already partitioned correctly: aggregate within partitions.
            def combine_local(records: list) -> list:
                acc: dict = {}
                for k, v in records:
                    acc[k] = fn(acc[k], v) if k in acc else v
                return list(acc.items())

            return MapPartitionsRDD(self, combine_local, name=name or "reduce_by_key")
        return ShuffledRDD(
            self, partitioner, aggregator=fn, map_side_combine=True,
            name=name or "reduce_by_key",
        )

    def group_by_key(
        self, partitioner: Optional[Partitioner] = None, name: str = ""
    ) -> "RDD":
        grouped = self.map_values(lambda v: _glist([v])).reduce_by_key(
            lambda a, b: _extend(a, b), partitioner, name=name or "group_by_key"
        )
        return grouped.map_values(list, name="group_by_key_values")

    def cogroup(self, *others: "RDD", partitioner: Optional[Partitioner] = None,
                name: str = "") -> "RDD":
        """Cogroup this RDD with ``others``; records become
        ``(key, (values_0, values_1, …))``.

        Co-partitioned parents contribute narrow dependencies — the case
        Stark's LocalityManager turns into fully local execution.
        """
        from .shuffled import CoGroupedRDD

        rdds = [self, *others]
        return CoGroupedRDD(self.context, rdds, partitioner, name=name)

    def join(self, other: "RDD", partitioner: Optional[Partitioner] = None,
             name: str = "") -> "RDD":
        def flatten(kv: tuple) -> list:
            key, (left, right) = kv
            return [(key, (lv, rv)) for lv in left for rv in right]

        return self.cogroup(other, partitioner=partitioner).flat_map(
            flatten, name=name or "join"
        )

    # ---- actions ------------------------------------------------------------------

    def count(self) -> int:
        results = self.context.run_job(self, lambda records: len(records),
                                       description=f"{self.name}.count")
        return sum(results)

    def collect(self) -> list:
        results = self.context.run_job(self, lambda records: list(records),
                                       description=f"{self.name}.collect")
        out: list = []
        for part in results:
            out.extend(part)
        return out

    def collect_partitions(self) -> List[list]:
        """Collect keeping partition boundaries (testing/diagnostics)."""
        return self.context.run_job(self, lambda records: list(records),
                                    description=f"{self.name}.collect_partitions")

    # ---- misc -----------------------------------------------------------------------

    def set_name(self, name: str) -> "RDD":
        self.name = name
        return self

    def __repr__(self) -> str:
        extra = f", ns={self.namespace!r}" if self.namespace else ""
        return f"{type(self).__name__}(id={self.rdd_id}, name={self.name!r}, " \
               f"partitions={self.num_partitions}{extra})"


def _glist(items: list) -> list:
    return _GroupList(items)


class _GroupList(list):
    """List subclass marking an already-grouped accumulator."""

    _grouped = True


def _extend(a: list, b: list) -> list:
    """Merge two group accumulators into a NEW list.

    Must never mutate its inputs: aggregators run over records that live
    inside persisted shuffle map outputs, and an in-place extend would
    corrupt them for every later job reading the same shuffle.
    """
    out = _GroupList(a)
    out.extend(b)
    return out
