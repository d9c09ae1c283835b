"""Vectorized kernels over :class:`~repro.columnar.batch.ColumnarBatch`.

Every kernel is a pure function ``batch -> batch`` (or a small family
thereof) built from whole-array numpy primitives.  Partitioning
reproduces the row engine's :func:`~repro.engine.partitioner.stable_hash`
bit for bit, a column at a time: int columns through a table-driven
CRC32 over their fixed 16-byte encoding, with no Python call per key;
float and str columns through one ``stable_hash`` call per *distinct*
value of that column; composite keys through the tuple fold in numpy.

Kernel contract (documented in ``docs/DATAFRAME.md``):

* input batches are never mutated;
* output row order is a deterministic function of input row order —
  byte-identical runs are an engine-wide invariant;
* group/join kernels use stable sorts so ties preserve input order.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.partitioner import stable_hash
from .batch import ColumnarBatch, Schema, _batch_bytes, normalize_schema

#: Aggregate ops understood by :func:`group_aggregate` /
#: :func:`merge_aggregate`.
AGG_OPS = ("sum", "count", "min", "max", "avg")


# ---- factorization ---------------------------------------------------------

def factorize(batch: ColumnarBatch,
              key_columns: Sequence[str]) -> Tuple[np.ndarray, List]:
    """Map each row's key to a dense code; return ``(codes, keys)``.

    ``keys[code]`` is the Python-scalar key (tuple for compound keys)
    for code ``code``.  Codes follow numpy's sorted-unique order, which
    is deterministic for a given input.
    """
    arrays = [batch.columns[name] for name in key_columns]
    if not arrays:
        raise ValueError("factorize needs at least one key column")
    if len(arrays) == 1:
        uniq, codes = np.unique(arrays[0], return_inverse=True)
        return codes, uniq.tolist()
    rec = np.empty(len(arrays[0]), dtype=[
        (f"f{i}", a.dtype) for i, a in enumerate(arrays)])
    for i, a in enumerate(arrays):
        rec[f"f{i}"] = a
    uniq, codes = np.unique(rec, return_inverse=True)
    keys = [tuple(u.item()) for u in uniq]
    return codes, keys


def _int_crc_tables() -> Tuple[np.ndarray, np.ndarray]:
    """Byte tables for CRC32 over ``stable_hash``'s int encoding.

    ``stable_hash`` encodes every int64 as 16 little-endian bytes: the
    eight value bytes, then eight sign bytes (all 0x00 or all 0xFF).
    CRC32 is affine over messages of one length, so for value bytes
    ``b0..b7`` the hash is ``sign[s] ^ table[0][b0] ^ ... ^ table[7][b7]``
    with ``table[i][b] = crc(b at offset i, zeros elsewhere) ^ crc(zeros)``
    and ``sign[s] = crc(eight zero bytes + the eight sign bytes)``.
    """
    zeros = zlib.crc32(bytes(16))
    table = np.empty((8, 256), dtype=np.uint32)
    message = bytearray(16)
    for i in range(8):
        for b in range(256):
            message[i] = b
            table[i, b] = zlib.crc32(message) ^ zeros
        message[i] = 0
    sign = np.array([zeros, zlib.crc32(bytes(8) + b"\xff" * 8)],
                    dtype=np.uint32)
    return table, sign


_INT_CRC_TABLE, _INT_CRC_SIGN = _int_crc_tables()


def _column_hash(values: np.ndarray) -> np.ndarray:
    """``stable_hash`` of every cell of one column, as ``uint64``.

    int64 cells go through the CRC tables, with no per-cell Python work.
    Floats hash their ``repr`` and strings their UTF-8 bytes, so those
    columns call ``stable_hash`` once per distinct value and gather.
    """
    if values.dtype.kind == "i":
        cells = np.ascontiguousarray(values, dtype="<i8")
        octets = cells.view(np.uint8).reshape(-1, 8)
        crc = np.where(cells < 0, _INT_CRC_SIGN[1], _INT_CRC_SIGN[0])
        for i in range(8):
            crc ^= _INT_CRC_TABLE[i].take(octets[:, i])
        return crc.astype(np.uint64)
    uniq, inverse = np.unique(values, return_inverse=True)
    lut = np.fromiter((stable_hash(v) for v in uniq.tolist()),
                      dtype=np.uint64, count=len(uniq))
    return lut[inverse]


def hash_partition_codes(batch: ColumnarBatch, key_columns: Sequence[str],
                         num_partitions: int) -> np.ndarray:
    """Per-row partition ids matching the row engine's HashPartitioner.

    Each key column is hashed whole (:func:`_column_hash`); a compound
    key folds the column hashes with ``stable_hash``'s tuple rule
    (``acc = (acc * 31 + h) & 0xFFFFFFFF`` from 17) — the same arithmetic
    ``stable_hash`` performs on the key tuple the row engine sees.
    """
    if not key_columns:
        raise ValueError("hash_partition_codes needs at least one key column")
    hashes = [_column_hash(batch.columns[name]) for name in key_columns]
    if len(hashes) == 1:
        acc = hashes[0]
    else:
        acc = np.full(batch.num_rows, 17, dtype=np.uint64)
        for h in hashes:
            acc = (acc * 31 + h) & 0xFFFFFFFF
    return (acc % num_partitions).astype(np.int64)


def _narrow_codes(codes: np.ndarray, n: int) -> np.ndarray:
    """``codes`` (all in ``[0, n)``) in the narrowest unsigned dtype
    that holds them: numpy's stable argsort radix-sorts 8- and 16-bit
    keys, and the order it returns is the same for any width."""
    if n <= 1 << 8:
        return codes.astype(np.uint8)
    if n <= 1 << 16:
        return codes.astype(np.uint16)
    return codes


def split_by_partition(batch: ColumnarBatch, part_codes: np.ndarray,
                       num_partitions: int) -> Dict[int, ColumnarBatch]:
    """Split a batch into per-partition sub-batches (empty ones omitted);
    rows keep their relative order within each sub-batch.

    One stable sort of the (narrowed) codes and one gather of every
    column through it; each partition's rows are then a contiguous run,
    which its sub-batch copies, so a sub-batch kept alive never pins the
    rest of the batch.  Sub-batch sizes come from one ``str_len`` pass
    per string column, summed per run.
    """
    counts = np.bincount(part_codes, minlength=num_partitions)
    pids = np.flatnonzero(counts)
    if not len(pids):
        return {}
    order = np.argsort(_narrow_codes(part_codes, num_partitions),
                       kind="stable")
    ends = np.cumsum(counts)
    starts = ends - counts
    run_starts = starts[pids]
    numeric = sum(kind != "str" for _, kind in batch.schema)
    sizes = 8 * numeric * counts[pids]
    gathered: Dict[str, np.ndarray] = {}
    for name, kind in batch.schema:
        gathered[name] = batch.columns[name][order]
        if kind == "str":
            sizes = sizes + np.add.reduceat(
                np.char.str_len(gathered[name]), run_starts)
    out: Dict[int, ColumnarBatch] = {}
    for pid, start, end, size in zip(pids.tolist(), run_starts.tolist(),
                                      ends[pids].tolist(), sizes.tolist()):
        out[pid] = ColumnarBatch._trusted(
            batch.schema,
            {name: arr[start:end].copy() for name, arr in gathered.items()},
            size)
    return out


def _result(schema: List[Tuple[str, str]],
            columns: Dict[str, np.ndarray]) -> ColumnarBatch:
    """A join or aggregate kernel's output batch, built without the
    validating constructor: every column is already a typed 1-D array
    derived from validated input and keyed in ``schema`` order, so the
    one thing left to check is that no two output columns share a name
    (a clash collapses two columns into one dict key)."""
    if len(columns) != len(schema):
        raise ValueError(
            f"duplicate column name in {[name for name, _ in schema]}")
    out = tuple(schema)
    return ColumnarBatch._trusted(out, columns, _batch_bytes(out, columns))


# ---- grouped aggregation ---------------------------------------------------

def partial_agg_schema(key_schema: Schema,
                       aggs: Sequence[Tuple[str, str, str]],
                       value_kinds: Dict[str, str]) -> Schema:
    """Physical schema of a partial-aggregate batch: keys + one column
    per accumulator (``avg`` expands to a sum and a count; ``min``/
    ``max`` keep the input column's kind from ``value_kinds``)."""
    cols = list(normalize_schema(key_schema))
    for op, column, alias in aggs:
        if op == "avg":
            cols.append((f"{alias}__sum", "float"))
            cols.append((f"{alias}__count", "int"))
        elif op == "count":
            cols.append((alias, "int"))
        elif op == "sum":
            cols.append((alias, "float"))
        else:
            cols.append((alias, value_kinds[column]))
    return tuple(cols)


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
    n_groups = len(keys)
    order = np.argsort(_narrow_codes(codes, n_groups), kind="stable")
    # Size and start offset of each group's run in the sorted order.
    counts = np.bincount(codes, minlength=n_groups)
    starts = np.cumsum(counts) - counts

    out_schema: List[Tuple[str, str]] = [
        (name, batch.kind_of(name)) for name in key_columns]
    out_cols: Dict[str, np.ndarray] = {}
    for name in key_columns:
        kind = batch.kind_of(name)
        if n_groups:
            out_cols[name] = batch.columns[name][order[starts]]
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
    return _result(out_schema, out_cols)


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
    return _result(out_schema, out_cols)


# ---- join ------------------------------------------------------------------

def hash_join(left: ColumnarBatch, right: ColumnarBatch,
              left_on: str, right_on: str,
              suffix: str = "_r") -> ColumnarBatch:
    """Inner equi-join of two batches on one key column each.

    Sort-probe at vector speed: stable-sort the right keys once, find
    every left key's run of equal right keys in that order
    (:func:`_probe`) and expand the runs with repeat/cumsum arithmetic.
    Output rows follow left-row order (ties in right-row order), so the
    result is deterministic.

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
    lo, counts = _probe(lk, rk, r_order)
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
    return _result(out_schema, out_cols)


def _probe(lk: np.ndarray, rk: np.ndarray,
           r_order: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(lo, counts)``: where each left key's run of equal right keys
    starts in the sorted right order ``r_order``, and its length.

    Int keys whose right-side span ``high - low + 1`` is at most
    ``8 * (len(lk) + len(rk))`` use an offset table: one ``bincount`` of
    the right keys, its exclusive cumsum, and one gather per left key.
    Anything else (str, float, sparse ints) binary-searches the sorted
    right keys.
    """
    if lk.dtype.kind == "i" and len(rk):
        low, high = int(rk.min()), int(rk.max())
        span = high - low + 1
        if span <= 8 * (len(lk) + len(rk)):
            per_key = np.bincount(rk - low, minlength=span)
            starts = np.cumsum(per_key) - per_key
            inside = (lk >= low) & (lk <= high)
            # Mask before subtracting, so no key outside the table wraps.
            slot = np.where(inside, lk, low) - low
            counts = np.where(inside, per_key[slot], 0)
            return starts[slot], counts
    r_sorted = rk[r_order]
    lo = np.searchsorted(r_sorted, lk, side="left")
    hi = np.searchsorted(r_sorted, lk, side="right")
    return lo, hi - lo


def join_schema(left: Schema, right: Schema, right_on: str,
                suffix: str = "_r") -> Schema:
    """Output schema of :func:`hash_join` without running it."""
    left = normalize_schema(left)
    right = normalize_schema(right)
    left_names = {name for name, _ in left}
    out = list(left)
    for name, kind in right:
        if name == right_on:
            continue
        out.append((name + suffix if name in left_names else name, kind))
    return tuple(out)


# ---- sort ------------------------------------------------------------------

def sort_batch(batch: ColumnarBatch,
               by: Sequence[Tuple[str, bool]]) -> ColumnarBatch:
    """Sort rows by ``(column, ascending)`` specs, first spec primary.

    Stable throughout, so equal keys preserve input order.  Descending
    int sorts complement the column (``~x``, which cannot overflow);
    descending string sorts need a rank indirection (numpy cannot negate
    strings): rank via sorted-unique positions, then negate the ranks.
    """
    if not by:
        return batch
    keys: List[np.ndarray] = []
    for name, ascending in by:
        arr = batch.columns[name]
        if not ascending:
            if arr.dtype.kind == "U":
                uniq, inv = np.unique(arr, return_inverse=True)
                arr = -inv
            elif arr.dtype.kind == "i":
                arr = ~arr  # reverses the order; -INT64_MIN would wrap
            else:
                arr = -arr
        keys.append(arr)
    # lexsort: last key is primary.
    order = np.lexsort(tuple(reversed(keys)))
    return batch.take(order)


def limit_batch(batch: ColumnarBatch, n: int) -> ColumnarBatch:
    return batch.take(np.arange(min(n, batch.num_rows)))


def concat_batches(schema: Schema,
                   batches: Sequence[Optional[ColumnarBatch]]) -> ColumnarBatch:
    return ColumnarBatch.concat(schema, [b for b in batches if b is not None])
