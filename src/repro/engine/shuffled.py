"""Wide-dependency RDDs: shuffle, cogroup, locality shuffle."""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, List, Optional, Sequence, TYPE_CHECKING

from .dependency import OneToOneDependency, ShuffleDependency
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
