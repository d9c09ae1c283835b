"""The columnar block format: typed schemas over numpy column arrays.

A :class:`ColumnarBatch` is one partition's worth of rows stored
column-major: a :class:`Schema` (ordered ``(name, kind)`` pairs with
``kind`` one of ``int``/``float``/``str``) plus one numpy array per
column.  Batches are immutable by convention — every kernel returns a
new batch — and declare their own accounting sizes:

* ``sim_size`` — serialized bytes (8 bytes per numeric, actual character
  count per string cell), picked up by
  :class:`~repro.cluster.cost_model.RecordSizer` wherever a batch flows
  through shuffle/checkpoint/source accounting;
* ``sim_memory_size`` — heap bytes when cached.  Contiguous typed arrays
  carry no per-object boxing, so this equals ``sim_size`` — columnar
  caching is ~2.5x denser than row caching (the sizer's
  ``memory_overhead``), visible in ``stark trace``'s cache timeline.

One partition of a columnar RDD is the single-element list ``[batch]``,
which keeps every engine interface (block store, memoization, sizer,
shuffle buckets) unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Ordered column declarations: ``((name, kind), ...)`` with kind one of
#: ``"int" | "float" | "str"``.
Schema = Tuple[Tuple[str, str], ...]

_KINDS = ("int", "float", "str")

_NUMPY_DTYPE = {"int": np.int64, "float": np.float64}


def normalize_schema(schema: Sequence[Tuple[str, str]]) -> Schema:
    """Validate and freeze a schema declaration."""
    out: List[Tuple[str, str]] = []
    seen = set()
    for name, kind in schema:
        if kind not in _KINDS:
            raise ValueError(f"unknown column kind {kind!r} for {name!r}; "
                             f"pick from {_KINDS}")
        if name in seen:
            raise ValueError(f"duplicate column name {name!r}")
        seen.add(name)
        out.append((str(name), kind))
    if not out:
        raise ValueError("schema needs at least one column")
    return tuple(out)


def column_bytes(array: np.ndarray, kind: str) -> int:
    """Serialized byte size of one column.

    Numerics are 8 bytes per value.  Unicode arrays store fixed-width
    UCS-4 cells; we account the simulated wire size as one byte per
    actual character, not numpy's padded in-memory width.
    """
    if kind == "str":
        if array.size == 0:
            return 0
        return int(np.char.str_len(array).sum())
    return int(array.size * 8)


def _coerce(name: str, values: np.ndarray, kind: str) -> np.ndarray:
    if kind == "str":
        return values if values.dtype.kind == "U" else values.astype(str)
    if kind == "int" and values.dtype.kind not in "iu":
        # A float (or other) input is stored only if every value survives
        # the cast: 1.5 must not silently become 1.
        with np.errstate(invalid="ignore"):
            cast = np.asarray(values, dtype=np.int64)
            exact = np.array_equal(cast.astype(values.dtype), values)
        if not exact:
            raise ValueError(f"int column {name!r} holds values that are "
                             f"not integers ({values.dtype})")
        return cast
    return np.asarray(values, dtype=_NUMPY_DTYPE[kind])


def _batch_bytes(schema: Schema, columns: Dict[str, np.ndarray]) -> int:
    return sum(column_bytes(columns[name], kind) for name, kind in schema)


class ColumnarBatch:
    """One partition of columnar data: schema + parallel column arrays.

    The public constructor is the one validation boundary: it normalizes
    the schema, coerces every column to its kind's dtype and rejects
    ragged or lossy input.  Batches a method builds from an
    already-validated batch (:meth:`take`, :meth:`select`,
    :meth:`concat`, the exchange's sub-batches) skip it through
    :meth:`_trusted`.
    """

    __slots__ = ("schema", "columns", "sim_size", "sim_memory_size")

    def __init__(self, schema: Sequence[Tuple[str, str]],
                 columns: Dict[str, np.ndarray]) -> None:
        self.schema = normalize_schema(schema)
        cols: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for name, kind in self.schema:
            if name not in columns:
                raise ValueError(f"schema column {name!r} missing from data")
            arr = _coerce(name, np.asarray(columns[name]), kind)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D")
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise ValueError(
                    f"column {name!r} has {len(arr)} rows, expected {length}")
            cols[name] = arr
        self.columns = cols
        size = _batch_bytes(self.schema, cols)
        # Both sizes are plain ints so RecordSizer and the frozen Block
        # bookkeeping treat a batch like any size-declaring record.
        self.sim_size = size
        self.sim_memory_size = size

    # ---- construction ------------------------------------------------------

    @classmethod
    def _trusted(cls, schema: Schema, columns: Dict[str, np.ndarray],
                 size: int) -> "ColumnarBatch":
        """A batch from parts that are already valid: ``schema``
        normalized, ``columns`` typed 1-D arrays of equal length keyed in
        schema order, ``size`` their :func:`column_bytes` sum."""
        batch = cls.__new__(cls)
        batch.schema = schema
        batch.columns = columns
        batch.sim_size = size
        batch.sim_memory_size = size
        return batch

    @classmethod
    def from_rows(cls, schema: Sequence[Tuple[str, str]],
                  rows: Iterable[Sequence]) -> "ColumnarBatch":
        """Build a batch from row tuples ordered like ``schema``."""
        schema = normalize_schema(schema)
        rows = list(rows)
        columns: Dict[str, np.ndarray] = {}
        for i, (name, kind) in enumerate(schema):
            values = [row[i] for row in rows]
            if kind == "str":
                columns[name] = np.array(values, dtype=str) if values \
                    else np.empty(0, dtype="<U1")
            elif kind == "float":
                columns[name] = np.array(values, dtype=np.float64)
            else:
                # Untyped, so the constructor's cast check sees a float in
                # an int column and raises instead of truncating it.
                columns[name] = np.array(values)
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Sequence[Tuple[str, str]]) -> "ColumnarBatch":
        return cls.from_rows(schema, [])

    @classmethod
    def concat(cls, schema: Sequence[Tuple[str, str]],
               batches: Sequence["ColumnarBatch"]) -> "ColumnarBatch":
        """Stack ``batches`` (all of schema ``schema``) into one batch."""
        schema = normalize_schema(schema)
        batches = [b for b in batches if b.num_rows]
        if not batches:
            return cls.empty(schema)
        for b in batches:
            if b.schema != schema:
                raise ValueError(f"cannot concat a batch of schema "
                                 f"{b.schema} as {schema}")
        columns = {
            name: np.concatenate([b.columns[name] for b in batches])
            for name, _ in schema
        }
        return cls._trusted(schema, columns,
                            sum(b.sim_size for b in batches))

    # ---- views -------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        name = self.schema[0][0]
        return len(self.columns[name])

    @property
    def column_names(self) -> List[str]:
        return [name for name, _ in self.schema]

    def kind_of(self, name: str) -> str:
        for col, kind in self.schema:
            if col == name:
                return kind
        raise KeyError(name)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def select(self, names: Sequence[str]) -> "ColumnarBatch":
        """Project to a subset (or reordering) of columns."""
        schema = normalize_schema(
            [(name, self.kind_of(name)) for name in names])
        columns = {name: self.columns[name] for name, _ in schema}
        return ColumnarBatch._trusted(schema, columns,
                                      _batch_bytes(schema, columns))

    def take(self, selector: np.ndarray) -> "ColumnarBatch":
        """Row subset by boolean mask or integer index array."""
        columns = {name: arr[selector] for name, arr in self.columns.items()}
        return ColumnarBatch._trusted(self.schema, columns,
                                      _batch_bytes(self.schema, columns))

    def with_columns(self, schema: Sequence[Tuple[str, str]],
                     columns: Dict[str, np.ndarray]) -> "ColumnarBatch":
        """A new batch replacing schema and columns wholesale."""
        return ColumnarBatch(schema, columns)

    def to_rows(self) -> List[tuple]:
        """Row tuples (Python scalars) in schema order."""
        names = self.column_names
        pulled = [self.columns[name].tolist() for name in names]
        return list(zip(*pulled)) if pulled else []

    # ---- comparison / debugging --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarBatch):
            return NotImplemented
        if self.schema != other.schema or self.num_rows != other.num_rows:
            return False
        return all(
            np.array_equal(self.columns[name], other.columns[name])
            for name, _ in self.schema
        )

    def __hash__(self) -> int:  # batches are mutable containers
        raise TypeError("ColumnarBatch is unhashable")

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        cols = ", ".join(f"{name}:{kind}" for name, kind in self.schema)
        return f"ColumnarBatch({self.num_rows} rows, [{cols}])"
