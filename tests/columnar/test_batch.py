"""ColumnarBatch: construction, round-trips, and size accounting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.columnar.batch import ColumnarBatch, column_bytes

SCHEMA = (("k", "str"), ("v", "int"), ("w", "float"))

rows_st = st.lists(
    st.tuples(st.sampled_from(["a", "bb", "ccc", ""]),
              st.integers(-10**6, 10**6),
              st.floats(-1e6, 1e6, allow_nan=False)),
    max_size=50)


class TestRoundTrip:
    @given(rows_st)
    def test_rows_round_trip(self, rows):
        batch = ColumnarBatch.from_rows(SCHEMA, rows)
        assert batch.num_rows == len(rows)
        assert batch.to_rows() == [tuple(r) for r in rows]

    def test_empty(self):
        batch = ColumnarBatch.empty(SCHEMA)
        assert batch.num_rows == 0
        assert batch.to_rows() == []

    def test_select_take_concat(self):
        batch = ColumnarBatch.from_rows(
            SCHEMA, [("a", 1, 0.5), ("b", 2, 1.5), ("a", 3, 2.5)])
        sel = batch.select(["v", "k"])
        assert sel.column_names == ["v", "k"]
        taken = batch.take(np.asarray([True, False, True]))
        assert taken.to_rows() == [("a", 1, 0.5), ("a", 3, 2.5)]
        merged = ColumnarBatch.concat(batch.schema, [batch, taken])
        assert merged.num_rows == 5


class TestSizes:
    def test_sim_size_counts_column_bytes(self):
        batch = ColumnarBatch.from_rows(
            SCHEMA, [("ab", 1, 0.5), ("c", 2, 1.5)])
        # str: actual characters; int/float: 8 bytes per value.
        expected = 3 + 2 * 8 + 2 * 8
        assert batch.sim_size == expected
        assert batch.sim_memory_size == expected

    def test_column_bytes_numeric(self):
        assert column_bytes(np.zeros(4, dtype=np.int64), "int") == 32

    def test_fractional_floats_rejected_from_int_column(self):
        # regression: 1.5 and 2.7 were silently stored as 1 and 2
        with pytest.raises(ValueError, match="not integers"):
            ColumnarBatch((("a", "int"),), {"a": np.array([1.5, 2.7])})
        with pytest.raises(ValueError, match="not integers"):
            ColumnarBatch((("a", "int"),), {"a": np.array([1.0, np.nan])})
        with pytest.raises(ValueError, match="not integers"):
            ColumnarBatch((("a", "int"),), {"a": np.array([2.0**63])})

    def test_from_rows_rejects_fractional_floats_in_an_int_column(self):
        # regression: from_rows cast to int64 before the check ran, so
        # (1.5,), (2.7,) came back as rows (1,), (2,)
        with pytest.raises(ValueError, match="not integers"):
            ColumnarBatch.from_rows((("a", "int"),), [(1.5,), (2.7,)])

    def test_integral_floats_still_fill_an_int_column(self):
        batch = ColumnarBatch((("a", "int"),), {"a": np.array([1.0, -2.0])})
        assert batch.column("a").dtype == np.int64
        assert batch.to_rows() == [(1,), (-2,)]
        assert batch.sim_size == 16
        rows = ColumnarBatch.from_rows((("a", "int"),), [(1.0,), (-2,)])
        assert rows.column("a").dtype == np.int64
        assert rows.to_rows() == [(1,), (-2,)]

    def test_schema_mismatch_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            ColumnarBatch(SCHEMA, {"k": np.asarray(["a"])})
