"""Narrow transformations: map, filter, flat-map, map-partitions.

Each subclass implements ``compute`` by pulling its single parent's
partition through the evaluation context (which charges the parent's cost)
and then applying its own function, charging CPU per input record.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, TYPE_CHECKING

from .dependency import OneToOneDependency
from .rdd import RDD

if TYPE_CHECKING:  # pragma: no cover
    from .compute import EvalContext


class UnaryNarrowRDD(RDD):
    """Base for single-parent, one-to-one-partitioned transformations.

    ``preserves_partitioning`` mirrors Spark's flag: an element-wise
    transformation may change keys, so the parent's partitioner only
    carries over when the caller guarantees keys are untouched
    (``map_values``, ``filter``, per-partition aggregation).
    """

    def __init__(self, parent: RDD, name: str = "",
                 preserves_partitioning: bool = False) -> None:
        super().__init__(
            parent.context,
            [OneToOneDependency(parent)],
            parent.num_partitions,
            partitioner=parent.partitioner if preserves_partitioning else None,
            name=name,
        )
        self.parent = parent

    def _apply(self, records: list) -> list:
        raise NotImplementedError

    def compute(self, pid: int, ctx: "EvalContext") -> list:
        parent_records = ctx.evaluate(self.parent, pid)
        ctx.charge_compute(self, len(parent_records))
        return self._apply(parent_records)


class MappedRDD(UnaryNarrowRDD):
    """Element-wise ``map``."""

    def __init__(self, parent: RDD, fn: Callable[[Any], Any], name: str = "",
                 preserves_partitioning: bool = False) -> None:
        super().__init__(parent, name=name or "map",
                         preserves_partitioning=preserves_partitioning)
        self.fn = fn

    def _apply(self, records: list) -> list:
        fn = self.fn
        return [fn(r) for r in records]


class FilteredRDD(UnaryNarrowRDD):
    """Element-wise ``filter``."""

    def __init__(self, parent: RDD, predicate: Callable[[Any], bool],
                 name: str = "") -> None:
        # Filtering never touches keys: partitioning always survives.
        super().__init__(parent, name=name or "filter",
                         preserves_partitioning=True)
        self.predicate = predicate

    def _apply(self, records: list) -> list:
        predicate = self.predicate
        return [r for r in records if predicate(r)]


class FlatMappedRDD(UnaryNarrowRDD):
    """Element-wise ``flat_map``."""

    def __init__(self, parent: RDD, fn: Callable[[Any], Iterable[Any]],
                 name: str = "") -> None:
        super().__init__(parent, name=name or "flat_map")
        self.fn = fn

    def _apply(self, records: list) -> list:
        fn = self.fn
        out: list = []
        for r in records:
            out.extend(fn(r))
        return out


class MapPartitionsRDD(UnaryNarrowRDD):
    """Whole-partition transformation: the in-place combine of a
    ``reduce_by_key`` over input already in the target layout."""

    def __init__(self, parent: RDD, fn: Callable[[list], Iterable[Any]],
                 name: str = "", preserves_partitioning: bool = True) -> None:
        super().__init__(parent, name=name or "map_partitions",
                         preserves_partitioning=preserves_partitioning)
        self.fn = fn

    def _apply(self, records: list) -> list:
        return list(self.fn(records))
