"""Stages: connected components of narrow transformations.

The DAG scheduler cuts the lineage graph at shuffle boundaries; each
resulting :class:`Stage` runs the same code over every partition (or
partition *group*, when the target RDD belongs to an extendable-
partitioned namespace).  A shuffle-map stage ends at the map phase of a
:class:`~repro.engine.dependency.ShuffleDependency`; a result stage ends
at the action's RDD.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .dependency import ShuffleDependency
    from .rdd import RDD


class Stage:
    """One stage of a job.

    ``shuffle_dep`` is set for shuffle-map stages (the stage computes
    ``shuffle_dep.rdd`` and commits map outputs); ``None`` marks the
    result stage, which computes ``rdd`` itself and feeds the action.

    A shuffle-map stage is owned by its dependency
    (``ShuffleDependency.map_stage``) and refers back to it weakly, so
    the pair forms no reference cycle: the stage, and with it the
    shuffle's map outputs, go the moment the last RDD reaching the
    dependency is dropped.
    """

    def __init__(
        self,
        rdd: "RDD",
        shuffle_dep: Optional["ShuffleDependency"],
        parent_stages: List["Stage"],
    ) -> None:
        # Allocated per context so identical runs in one process emit
        # identical ids (the determinism tests byte-compare event logs).
        self.stage_id = next(rdd.context._stage_ids)
        self.rdd = rdd
        self._dep_ref = None if shuffle_dep is None else weakref.ref(shuffle_dep)
        self.parent_stages = parent_stages

    @property
    def shuffle_dep(self) -> Optional["ShuffleDependency"]:
        ref = self._dep_ref
        return None if ref is None else ref()

    @property
    def is_shuffle_map(self) -> bool:
        return self._dep_ref is not None

    @property
    def num_partitions(self) -> int:
        return self.rdd.num_partitions

    def __repr__(self) -> str:
        kind = "ShuffleMapStage" if self.is_shuffle_map else "ResultStage"
        return (
            f"{kind}(id={self.stage_id}, rdd={self.rdd.name!r}, "
            f"partitions={self.num_partitions})"
        )
