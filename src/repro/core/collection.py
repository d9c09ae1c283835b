"""DatasetCollection: the paper's dynamic dataset collection (§III).

A collection is a series of per-step datasets under one partitioner and,
with Stark's co-locality, one namespace.  Every step is routed into the
namespace, cached, materialized, reported to the GroupManager (§III-E's
``reportRDD``, which drives group split/merge) and, once it falls out of
the sliding window, unpersisted.  Callers build each step's RDD (its
source, read cost and name differ per workload) and hand it to
:meth:`DatasetCollection.add`; the collection owns the rest of its
lifecycle, so no caller can forget the report that group elasticity
depends on.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext
    from ..engine.partitioner import Partitioner
    from ..engine.rdd import RDD


class DatasetCollection:
    """Cached per-step RDDs with an optional co-locality namespace and
    sliding window.

    Without a ``namespace`` the collection only caches, materializes and
    slides: the caller routes each step itself (plain Spark), and the
    GroupManager is never consulted.  With ``window`` set, adding step
    ``s`` unpersists every step ``<= s - window``.
    """

    def __init__(
        self,
        context: "StarkContext",
        partitioner: Optional["Partitioner"],
        namespace: Optional[str] = None,
        window: Optional[int] = None,
    ) -> None:
        if namespace is not None and partitioner is None:
            raise ValueError("a namespaced collection needs a partitioner")
        if window is not None and window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.context = context
        self.partitioner = partitioner
        self.namespace = namespace
        self.window = window
        #: step -> cached RDD of that step, in the order steps were added.
        self.steps: Dict[int, "RDD"] = {}

    def add(self, step: int, rdd: "RDD", name: str = "") -> "RDD":
        """Route ``rdd`` into the collection as ``step``: co-locate it
        (with a namespace), name it, cache and materialize it, report it
        to the GroupManager, then slide the window.  Returns the cached
        RDD the collection holds."""
        if self.namespace is not None:
            rdd = rdd.locality_partition_by(self.partitioner, self.namespace)
        if name:
            rdd.set_name(name)
        rdd.cache()
        rdd.count()
        if self.namespace is not None:
            self.context.group_manager.report_rdd(rdd)
        self.steps[step] = rdd
        if self.window is not None:
            for old in [s for s in self.steps if s <= step - self.window]:
                self.drop(old)
        return rdd

    def drop(self, step: int) -> None:
        """Unpersist and forget ``step`` (no-op when it is not held)."""
        rdd = self.steps.pop(step, None)
        if rdd is not None:
            rdd.unpersist()
