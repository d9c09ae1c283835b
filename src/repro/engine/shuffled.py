"""Wide-dependency RDDs: shuffle, cogroup, union, locality shuffle."""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, List, Optional, Sequence, TYPE_CHECKING

from .dependency import (
    OneToOneDependency,
    RangeDependency,
    ShuffleDependency,
)
from .partitioner import HashPartitioner, Partitioner
from .rdd import RDD

if TYPE_CHECKING:  # pragma: no cover
    from .compute import EvalContext
    from .context import StarkContext


class ShuffledRDD(RDD):
    """Result of a shuffle: records of partition ``p`` are every parent
    record whose key hashes/ranges to ``p``.

    With an ``aggregator``, values sharing a key are combined on the
    reduce side (and optionally pre-combined map-side).
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Optional[Callable[[Any, Any], Any]] = None,
        map_side_combine: bool = False,
        name: str = "",
    ) -> None:
        dep = ShuffleDependency(parent, partitioner, aggregator, map_side_combine)
        super().__init__(
            parent.context,
            [dep],
            partitioner.num_partitions,
            partitioner=partitioner,
            name=name or "shuffled",
        )
        self.shuffle_dep = dep

    def compute(self, pid: int, ctx: "EvalContext") -> list:
        records = ctx.fetch_shuffle(self, self.shuffle_dep, pid)
        if self.shuffle_dep.aggregator is None:
            return records
        agg = self.shuffle_dep.aggregator
        acc: dict = {}
        for k, v in records:
            acc[k] = agg(acc[k], v) if k in acc else v
        return list(acc.items())


class LocalityShuffledRDD(ShuffledRDD):
    """A shuffle registered under a co-locality namespace (§III-B).

    Registration happens at construction: the LocalityManager validates
    that the partitioner agrees with the namespace's and assigns (or
    reuses) the collection-partition → executor mapping.  The namespace
    then carries through narrow children automatically.
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        namespace: str,
        name: str = "",
    ) -> None:
        super().__init__(parent, partitioner, name=name or "locality_shuffled")
        manager = parent.context.locality_manager
        manager.register(namespace, partitioner)
        manager.register_rdd(namespace, self)
        self.namespace = namespace


class CoGroupedRDD(RDD):
    """Cogroup of N parents into ``(key, (values_0, …, values_{N-1}))``.

    Parents whose partitioner equals the output partitioner contribute a
    narrow (one-to-one) dependency — their partition ``p`` is consumed
    in place; others contribute a shuffle dependency.  This mixed-
    dependency behaviour is exactly Spark's, and it is what makes
    co-partitioned-but-not-co-located collections pay the recompute
    penalty of Fig 2 that Stark's LocalityManager removes (Fig 3).

    Keys come out in first-seen order across parents in parent order,
    each with a fresh list per parent.  The output is sized from its
    parents' serialized bytes (``RecordSizer.size_of_cogroup``), not
    walked, whenever every input record is an exact pair.
    """

    def __init__(
        self,
        context: "StarkContext",
        parents: Sequence[RDD],
        partitioner: Optional[Partitioner] = None,
        name: str = "",
    ) -> None:
        parents = list(parents)
        if not parents:
            raise ValueError("cogroup needs at least one parent RDD")
        if partitioner is None:
            partitioner = next(
                (p.partitioner for p in parents if p.partitioner is not None),
                None,
            ) or HashPartitioner(max(p.num_partitions for p in parents))
        deps = [
            OneToOneDependency(parent)
            if parent.partitioner is not None and parent.partitioner == partitioner
            else ShuffleDependency(parent, partitioner)
            for parent in parents
        ]
        super().__init__(context, deps, partitioner.num_partitions,
                         partitioner=partitioner, name=name or "cogroup")
        # Namespace carries over only if every parent shares it — a
        # cogroup across namespaces has no single collection mapping.
        namespaces = {p.namespace for p in parents}
        self.namespace = namespaces.pop() if len(namespaces) == 1 else None

    def compute(self, pid: int, ctx: "EvalContext") -> list:
        parts: List[list] = []
        sizes: List[int] = []
        groups: List[dict] = []
        for dep in self.dependencies:
            if isinstance(dep, ShuffleDependency):
                records = ctx.fetch_shuffle(self, dep, pid)
            else:
                records = ctx.evaluate(dep.rdd, pid)
            sizes.append(ctx.serialized_size(records))  # as declared
            grouped: dict = {}
            group = grouped.setdefault
            for k, v in records:
                group(k, []).append(v)
            parts.append(records)
            groups.append(grouped)
        ctx.charge_compute(self, sum(map(len, parts)))
        keys = list(dict.fromkeys(chain.from_iterable(groups)))
        columns = [[g.get(k) or [] for k in keys] for g in groups]
        out = list(zip(keys, zip(*columns)))
        size = ctx.context.sizer.size_of_cogroup(parts, sizes, keys)
        if size is not None:
            ctx.declare_size(out, size)
        return out


class CoalescedRDD(RDD):
    """Narrow reduction of the partition count.

    Output partition ``i`` concatenates a contiguous run of parent
    partitions; no data moves through a shuffle, so lineage stays narrow
    (but any parent partitioner is lost — key ranges merge).
    """

    def __init__(self, parent: RDD, num_partitions: int, name: str = "") -> None:
        if num_partitions <= 0:
            raise ValueError(f"need at least one partition: {num_partitions}")
        if num_partitions > parent.num_partitions:
            raise ValueError(
                f"coalesce cannot grow partitions ({parent.num_partitions} "
                f"-> {num_partitions}); use repartition"
            )
        from .dependency import GroupedDependency

        base = parent.num_partitions // num_partitions
        extra = parent.num_partitions % num_partitions
        mapping = {}
        start = 0
        for out_pid in range(num_partitions):
            width = base + (1 if out_pid < extra else 0)
            mapping[out_pid] = list(range(start, start + width))
            start += width
        dep = GroupedDependency(parent, mapping)
        super().__init__(parent.context, [dep], num_partitions,
                         partitioner=None, name=name or "coalesce")
        self.parent = parent
        self._mapping = mapping

    def compute(self, pid: int, ctx: "EvalContext") -> list:
        out: list = []
        for parent_pid in self._mapping[pid]:
            out.extend(ctx.evaluate(self.parent, parent_pid))
        ctx.charge_compute(self, 0)
        return out


class UnionRDD(RDD):
    """Concatenation of parents' partitions (no data movement)."""

    def __init__(self, context: "StarkContext", parents: Sequence[RDD],
                 name: str = "") -> None:
        parents = list(parents)
        if not parents:
            raise ValueError("union needs at least one parent RDD")
        deps = []
        out_start = 0
        for parent in parents:
            deps.append(RangeDependency(parent, 0, out_start, parent.num_partitions))
            out_start += parent.num_partitions
        super().__init__(context, deps, out_start, partitioner=None,
                         name=name or "union")

    def compute(self, pid: int, ctx: "EvalContext") -> list:
        for dep in self.dependencies:
            parent_pids = dep.get_parents(pid)
            if parent_pids:
                records = ctx.evaluate(dep.rdd, parent_pids[0])
                ctx.charge_compute(self, 0)
                return list(records)
        raise IndexError(f"union partition {pid} out of range")
