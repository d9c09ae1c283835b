"""The columnar kernels as they were before the offset-table probe, the
one-gather split and the trusted batch constructor — kept verbatim as
oracles for ``test_kernel_oracle.py``.

``take`` was the ``ColumnarBatch.take`` method; it is a function here,
and the reference split calls it instead of the method, so the oracle
builds every sub-batch through the validating constructor.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.columnar.batch import ColumnarBatch
from repro.columnar.kernels import AGG_OPS, factorize


def take(self, selector: np.ndarray) -> "ColumnarBatch":
    """Row subset by boolean mask or integer index array."""
    return ColumnarBatch(
        self.schema,
        {name: arr[selector] for name, arr in self.columns.items()})


def split_by_partition(batch: ColumnarBatch, part_codes: np.ndarray,
                       num_partitions: int) -> Dict[int, ColumnarBatch]:
    """Split a batch into per-partition sub-batches (empty ones omitted);
    rows keep their relative order within each sub-batch.

    One stable sort of the codes; each partition's rows are then a
    contiguous run of that order, and every row is gathered once, with no
    full-width pass per partition.  Gathering per run (rather than
    slicing one sorted copy) gives every sub-batch its own arrays, so a
    sub-batch kept alive never pins the rest of the batch.
    """
    order = np.argsort(part_codes, kind="stable")
    ends = np.cumsum(np.bincount(part_codes, minlength=num_partitions))
    out: Dict[int, ColumnarBatch] = {}
    start = 0
    for pid, end in enumerate(ends.tolist()):
        if end > start:
            out[pid] = take(batch, order[start:end])
        start = end
    return out


def group_aggregate(batch: ColumnarBatch, key_columns: Sequence[str],
                    aggs: Sequence[Tuple[str, str, str]]) -> ColumnarBatch:
    """Partial aggregation of one batch: ``aggs`` is ``(op, column,
    alias)`` triples with ``op`` in :data:`AGG_OPS`.

    Output carries the group keys plus accumulator columns; ``avg``
    materializes ``alias__sum``/``alias__count`` so partials merge
    exactly.  Mergeable with :func:`merge_aggregate` after an exchange.
    """
    for op, _, _ in aggs:
        if op not in AGG_OPS:
            raise ValueError(f"unknown aggregate op {op!r}")
    codes, keys = factorize(batch, key_columns)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    n_groups = len(keys)
    # Start offset of each group's run in the sorted permutation.
    starts = np.searchsorted(sorted_codes, np.arange(n_groups), side="left")
    counts = np.diff(np.append(starts, len(sorted_codes)))

    out_schema: List[Tuple[str, str]] = [
        (name, batch.kind_of(name)) for name in key_columns]
    out_cols: Dict[str, np.ndarray] = {}
    for name in key_columns:
        kind = batch.kind_of(name)
        if n_groups:
            out_cols[name] = batch.columns[name][order][starts]
        else:
            out_cols[name] = np.empty(
                0, dtype="<U1" if kind == "str" else np.int64
                if kind == "int" else np.float64)

    def reduceat(ufunc, values: np.ndarray) -> np.ndarray:
        if not n_groups:
            return values[:0]
        return ufunc.reduceat(values[order], starts)

    for op, column, alias in aggs:
        if op == "count":
            out_schema.append((alias, "int"))
            out_cols[alias] = counts.astype(np.int64)
            continue
        values = batch.columns[column]
        if op == "sum":
            out_schema.append((alias, "float"))
            out_cols[alias] = reduceat(np.add, values.astype(np.float64))
        elif op in ("min", "max"):
            out_schema.append((alias, batch.kind_of(column)))
            if values.dtype.kind == "U":
                # reduceat has no ufunc loop for unicode dtypes: lexsort
                # values within each group run instead and take the
                # run's first (min) / last (max) element.
                if n_groups:
                    sv = values[np.lexsort((values, codes))]
                    idx = starts if op == "min" else starts + counts - 1
                    out_cols[alias] = sv[idx]
                else:
                    out_cols[alias] = values[:0]
            else:
                out_cols[alias] = reduceat(
                    np.minimum if op == "min" else np.maximum, values)
        else:  # avg
            out_schema.append((f"{alias}__sum", "float"))
            out_schema.append((f"{alias}__count", "int"))
            out_cols[f"{alias}__sum"] = reduceat(
                np.add, values.astype(np.float64))
            out_cols[f"{alias}__count"] = counts.astype(np.int64)
    return ColumnarBatch(out_schema, out_cols)


def merge_aggregate(batch: ColumnarBatch, key_columns: Sequence[str],
                    aggs: Sequence[Tuple[str, str, str]]) -> ColumnarBatch:
    """Merge partial-aggregate batches (post-exchange) into finals.

    The input is a concatenation of :func:`group_aggregate` outputs for
    the same spec; re-aggregating the accumulator columns with the
    merge op (sum for sum/count, min/max for min/max) and finishing
    ``avg`` as ``sum / count`` yields the exact global result.
    """
    merge_spec: List[Tuple[str, str, str]] = []
    for op, _, alias in aggs:
        if op in ("sum", "count"):
            merge_spec.append(("sum", alias, alias))
        elif op in ("min", "max"):
            merge_spec.append((op, alias, alias))
        else:
            merge_spec.append(("sum", f"{alias}__sum", f"{alias}__sum"))
            merge_spec.append(("sum", f"{alias}__count", f"{alias}__count"))
    merged = group_aggregate(batch, key_columns, merge_spec)

    out_schema: List[Tuple[str, str]] = [
        (name, merged.kind_of(name)) for name in key_columns]
    out_cols: Dict[str, np.ndarray] = {
        name: merged.columns[name] for name in key_columns}
    for op, _, alias in aggs:
        if op == "avg":
            out_schema.append((alias, "float"))
            counts = merged.columns[f"{alias}__count"]
            sums = merged.columns[f"{alias}__sum"]
            with np.errstate(invalid="ignore", divide="ignore"):
                out_cols[alias] = np.where(
                    counts > 0, sums / np.maximum(counts, 1), np.nan)
        elif op == "count":
            out_schema.append((alias, "int"))
            out_cols[alias] = merged.columns[alias].astype(np.int64)
        else:
            out_schema.append((alias, merged.kind_of(alias)))
            out_cols[alias] = merged.columns[alias]
    return ColumnarBatch(out_schema, out_cols)


def hash_join(left: ColumnarBatch, right: ColumnarBatch,
              left_on: str, right_on: str,
              suffix: str = "_r") -> ColumnarBatch:
    """Inner equi-join of two batches on one key column each.

    Sort-probe at vector speed: stable-sort the right keys once, then
    ``searchsorted`` every left key against them and expand match runs
    with repeat/cumsum arithmetic.  Output rows follow left-row order
    (ties in right-row order), so the result is deterministic.

    The join key keeps the left column's name; non-key right columns
    clashing with a left name get ``suffix`` appended.

    Key kinds must match exactly: casting one side would make values
    compare equal that the exchange layer hashed to *different*
    partitions (``stable_hash(2) != stable_hash(2.0)``), silently
    dropping matches — so mismatches are an error here and at plan
    time (:class:`repro.sql.plan.Join`).
    """
    lkind = left.kind_of(left_on)
    rkind = right.kind_of(right_on)
    if lkind != rkind:
        raise TypeError(
            f"join key kind mismatch: {left_on!r} is {lkind}, "
            f"{right_on!r} is {rkind}; cast one side explicitly")
    lk = left.columns[left_on]
    rk = right.columns[right_on]
    r_order = np.argsort(rk, kind="stable")
    r_sorted = rk[r_order]
    lo = np.searchsorted(r_sorted, lk, side="left")
    hi = np.searchsorted(r_sorted, lk, side="right")
    counts = hi - lo
    l_idx = np.repeat(np.arange(len(lk)), counts)
    ends = np.cumsum(counts)
    within = np.arange(int(ends[-1]) if len(ends) else 0) \
        - np.repeat(ends - counts, counts)
    r_idx = r_order[np.repeat(lo, counts) + within]

    out_schema: List[Tuple[str, str]] = []
    out_cols: Dict[str, np.ndarray] = {}
    left_names = set(left.column_names)
    for name, kind in left.schema:
        out_schema.append((name, kind))
        out_cols[name] = left.columns[name][l_idx]
    for name, kind in right.schema:
        if name == right_on:
            continue  # key equal to the left's; drop the duplicate
        out_name = name + suffix if name in left_names else name
        out_schema.append((out_name, kind))
        out_cols[out_name] = right.columns[name][r_idx]
    return ColumnarBatch(out_schema, out_cols)
