"""Plan compiler: lower logical plans onto columnar RDD operators.

Lowering rules (``docs/DATAFRAME.md`` walks an example):

* ``Scan`` → :class:`~repro.columnar.rdd.ColumnarScanRDD` with the
  pruned column list and pushed predicate compiled to a mask kernel;
* ``Project``/``Filter`` → narrow
  :class:`~repro.columnar.rdd.ColumnarKernelRDD` kernels;
* ``Aggregate`` → partial-aggregate kernel, hash exchange on the group
  keys, merge kernel.  When the input already carries an equal
  :class:`~repro.columnar.rdd.ColumnarHashPartitioner` the exchange is
  **elided** (every group's rows are already co-resident);
* ``Join`` → exchange both sides onto a shared hash layout, then a
  narrow :class:`~repro.columnar.rdd.ColumnarZipRDD` running the
  vectorized hash join per partition.  Sides already partitioned on
  their join key skip their exchange — the partition-pruning join that
  makes repeated joins against a cached, pre-partitioned dimension
  table single-stage;
* ``Sort``/``Limit`` → gather exchange to one partition + sort/slice
  kernel (skipped when the input is already single-partition).

The compiler is deterministic and emits plain RDDs, so every downstream
engine feature — caching, eviction, retries, fair-share pools,
registry fingerprint dedup, critical-path tracing — applies to SQL jobs
with no extra code.  :class:`CompileStats` reports elided exchanges for
``explain()`` and the plan events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..columnar import kernels as K
from ..columnar.batch import ColumnarBatch
from ..columnar.rdd import (
    ColumnarExchangeRDD,
    ColumnarHashPartitioner,
    ColumnarKernelRDD,
    ColumnarScanRDD,
    ColumnarZipRDD,
)
from .plan import (
    Aggregate,
    Filter,
    JOIN_SUFFIX,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import StarkContext
    from ..engine.rdd import RDD


@dataclass
class CompileStats:
    """Physical-planning outcomes."""

    #: Exchanges skipped because the input already had the right layout.
    elided_exchanges: int = 0
    #: Exchanges actually planned.
    exchanges: int = 0


def compile_plan(plan: PlanNode, context: "StarkContext",
                 stats: "CompileStats | None" = None,
                 ) -> "Tuple[RDD, CompileStats]":
    """Lower ``plan`` to an RDD whose partitions are ``[ColumnarBatch]``."""
    stats = stats or CompileStats()
    rdd = _compile(plan, context, stats)
    return rdd, stats


def _mask_kernel(predicate, desc: str):
    def apply_filter(batch: ColumnarBatch) -> ColumnarBatch:
        mask = np.asarray(predicate.eval(batch), dtype=bool)
        return batch.take(mask)
    apply_filter.desc = desc
    return apply_filter


def _compile(node: PlanNode, context: "StarkContext",
             stats: CompileStats) -> "RDD":
    if isinstance(node, Scan):
        table = node.table
        pred = node.predicate
        return ColumnarScanRDD(
            context, table.generator, table.schema, table.num_partitions,
            columns=node.columns,
            pushed_filter=(_mask_kernel(pred, pred.describe())
                           if pred is not None else None),
            filter_desc=pred.describe() if pred is not None else "",
            read_cost=table.read_cost,
            name=f"scan:{table.name}",
        )

    if isinstance(node, Filter):
        child = _compile(node.child, context, stats)
        pred = node.predicate
        return ColumnarKernelRDD(
            child, _mask_kernel(pred, pred.describe()), node.schema(),
            desc=f"filter:{pred.describe()}", kernels=1, name="sql_filter")

    if isinstance(node, Project):
        child = _compile(node.child, context, stats)
        schema = node.schema()
        exprs = node.exprs
        kinds = dict(schema)

        def project(batch: ColumnarBatch) -> ColumnarBatch:
            cols = {}
            n = batch.num_rows
            for name, expr in exprs:
                value = expr.eval(batch)
                if np.ndim(value) == 0:  # literal broadcast
                    value = np.full(
                        n, value,
                        dtype=(str if kinds[name] == "str" else
                               np.int64 if kinds[name] == "int"
                               else np.float64))
                cols[name] = value
            return ColumnarBatch(schema, cols)

        desc = ";".join(f"{n}={e.describe()}" for n, e in exprs)
        # Keys survive a projection only if passed through untouched;
        # conservatively drop the partitioner unless every key column is
        # projected as itself.
        keeps = _projection_preserves_keys(child, exprs)
        return ColumnarKernelRDD(
            child, project, schema, desc=f"project:{desc}",
            kernels=len(exprs), preserves_partitioning=keeps,
            name="sql_project")

    if isinstance(node, Aggregate):
        child = _compile(node.child, context, stats)
        keys = list(node.keys)
        triples = [s.as_triple() for s in node.aggs]
        kinds = node.child.kinds()
        partial_schema = K.partial_agg_schema(
            tuple((k, kinds[k]) for k in keys), triples, kinds)
        out_schema = node.schema()
        desc = ",".join(s.describe() for s in node.aggs)

        partial = ColumnarKernelRDD(
            child,
            lambda b: K.group_aggregate(b, keys, triples),
            partial_schema, desc=f"agg_partial:{keys}:{desc}",
            kernels=2 + len(triples), name="sql_agg_partial")
        layout = ColumnarHashPartitioner(child.num_partitions, keys)
        if child.partitioner is not None and child.partitioner == layout:
            stats.elided_exchanges += 1
            merged = partial  # groups already co-resident
        else:
            stats.exchanges += 1
            merged = ColumnarExchangeRDD(
                partial, keys, child.num_partitions, partial_schema,
                name="sql_agg_exchange")
        return ColumnarKernelRDD(
            merged,
            lambda b: K.merge_aggregate(b, keys, triples),
            out_schema, desc=f"agg_merge:{keys}:{desc}",
            kernels=2 + len(triples), name="sql_agg_merge")

    if isinstance(node, Join):
        left = _compile(node.left, context, stats)
        right = _compile(node.right, context, stats)
        n = max(left.num_partitions, right.num_partitions)
        left_on, right_on = node.left_on, node.right_on
        left = _ensure_layout(left, [left_on], n,
                              tuple(node.left.schema()), stats)
        right = _ensure_layout(right, [right_on], n,
                               tuple(node.right.schema()), stats)
        out_schema = node.schema()

        def zip_join(batches) -> ColumnarBatch:
            return K.hash_join(batches[0], batches[1], left_on, right_on,
                               JOIN_SUFFIX)

        return ColumnarZipRDD(
            [left, right], zip_join, out_schema,
            desc=f"hash_join:{left_on}=={right_on}", kernels=3,
            name="sql_join")

    if isinstance(node, Sort):
        child = _compile(node.child, context, stats)
        by = list(node.by)
        gathered = _gather(child, tuple(node.schema()), stats)
        return ColumnarKernelRDD(
            gathered, lambda b: K.sort_batch(b, by), node.schema(),
            desc=f"sort:{by}", kernels=len(by) + 1, name="sql_sort")

    if isinstance(node, Limit):
        child = _compile(node.child, context, stats)
        gathered = _gather(child, tuple(node.schema()), stats)
        n_rows = node.n
        return ColumnarKernelRDD(
            gathered, lambda b: K.limit_batch(b, n_rows), node.schema(),
            desc=f"limit:{n_rows}", kernels=1, name="sql_limit")

    raise TypeError(f"cannot compile plan node {type(node).__name__}")


def _projection_preserves_keys(child: "RDD", exprs) -> bool:
    """True iff the child's hash layout survives the projection: every
    key column is projected through as itself (same name, bare column
    reference)."""
    from .expressions import Col

    layout = child.partitioner
    if not isinstance(layout, ColumnarHashPartitioner):
        return False
    passthrough = {name for name, expr in exprs
                   if isinstance(expr, Col) and expr.name == name}
    return all(key in passthrough for key in layout.key_columns)


def _ensure_layout(rdd: "RDD", keys, num_partitions: int, schema,
                   stats: CompileStats) -> "RDD":
    """Exchange ``rdd`` onto ``ColumnarHashPartitioner(num_partitions,
    keys)`` unless it is already there (partition-pruning join)."""
    layout = ColumnarHashPartitioner(num_partitions, keys)
    if rdd.partitioner is not None and rdd.partitioner == layout:
        stats.elided_exchanges += 1
        return rdd
    stats.exchanges += 1
    return ColumnarExchangeRDD(rdd, list(keys), num_partitions, schema,
                               name="sql_join_exchange")


def _gather(rdd: "RDD", schema, stats: CompileStats) -> "RDD":
    """All rows into one partition (global sort/limit)."""
    if rdd.num_partitions == 1:
        return rdd
    stats.exchanges += 1
    return ColumnarExchangeRDD(rdd, None, 1, schema, name="sql_gather")
