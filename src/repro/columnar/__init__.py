"""Columnar execution: typed record batches + vectorized kernels.

This package is the engine's columnar half (ROADMAP item 2, Shark's
blueprint): data lives in :class:`~repro.columnar.batch.ColumnarBatch`
blocks — one numpy array per column under a typed schema — and
transformations run as whole-array kernels instead of per-row Python
closures.  The :mod:`~repro.columnar.rdd` family plugs those kernels
into the existing lineage/stage/shuffle machinery, so columnar datasets
cache, checkpoint, retry, and fingerprint-dedup exactly like row
RDDs while paying the cost model's vectorized rates
(``columnar_cpu_per_record``).

The SQL/DataFrame front-end (``repro.sql``) compiles logical plans onto
these primitives.
"""

from .batch import ColumnarBatch, Schema, column_bytes
from .rdd import (
    ColumnarExchangeRDD,
    ColumnarHashPartitioner,
    ColumnarKernelRDD,
    ColumnarScanRDD,
    ColumnarZipRDD,
)

__all__ = [
    "ColumnarBatch",
    "Schema",
    "column_bytes",
    "ColumnarExchangeRDD",
    "ColumnarHashPartitioner",
    "ColumnarKernelRDD",
    "ColumnarScanRDD",
    "ColumnarZipRDD",
]
