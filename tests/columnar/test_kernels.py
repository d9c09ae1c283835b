"""Vectorized kernels vs plain-Python row references (hypothesis).

Every kernel is checked against the obvious row-at-a-time
implementation on randomized inputs: equality here is what lets the
engine swap row pipelines for columnar ones without changing results.
"""

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import kernels as K
from repro.columnar.batch import ColumnarBatch
from repro.engine.partitioner import HashPartitioner

SCHEMA = (("k", "str"), ("g", "int"), ("v", "int"), ("w", "float"))

rows_st = st.lists(
    st.tuples(st.sampled_from(["a", "b", "cc", "dd"]),
              st.integers(0, 5),
              st.integers(-1000, 1000),
              st.floats(-100, 100, allow_nan=False)),
    max_size=60)


def batch_of(rows):
    return ColumnarBatch.from_rows(SCHEMA, rows)


class TestHashPartitionParity:
    @given(rows_st, st.integers(1, 7))
    @settings(max_examples=50)
    def test_codes_match_row_hash_partitioner(self, rows, n):
        batch = batch_of(rows)
        row_part = HashPartitioner(n)
        pids = K.hash_partition_codes(batch, ["k"], n)
        expected = [row_part.get_partition(r[0]) for r in rows]
        assert pids.tolist() == expected

    @pytest.mark.parametrize("keys", [
        ["g"], ["v"], ["w"], ["k", "g"], ["v", "w", "k"]])
    @given(rows=rows_st, n=st.integers(1, 7))
    @settings(max_examples=30)
    def test_every_kind_matches_row_hash_partitioner(self, keys, rows, n):
        # int, float and compound keys too: a row RDD hashed on the same
        # key must land where the columnar exchange put it
        batch = batch_of(rows)
        idx = [[name for name, _ in SCHEMA].index(k) for k in keys]
        row_part = HashPartitioner(n)
        pids = K.hash_partition_codes(batch, keys, n)
        expected = [row_part.get_partition(
            r[idx[0]] if len(idx) == 1 else tuple(r[i] for i in idx))
            for r in rows]
        assert pids.tolist() == expected

    @given(rows_st, st.integers(1, 5))
    @settings(max_examples=30)
    def test_multi_column_keys_cover_all_rows(self, rows, n):
        batch = batch_of(rows)
        parts = K.split_by_partition(
            batch, K.hash_partition_codes(batch, ["k", "g"], n), n)
        assert sum(b.num_rows for b in parts.values()) == len(rows)
        rebuilt = sorted(r for b in parts.values() for r in b.to_rows())
        assert rebuilt == sorted(tuple(r) for r in rows)


class TestGroupAggregate:
    @given(rows_st)
    @settings(max_examples=60)
    def test_partial_plus_merge_equals_row_reference(self, rows):
        aggs = [("sum", "v", "total"), ("count", None, "n"),
                ("avg", "w", "mean_w"), ("min", "v", "lo"),
                ("max", "v", "hi")]
        batch = batch_of(rows)
        # split into two partials, merge — the shuffle path in miniature
        half = len(rows) // 2
        partials = [K.group_aggregate(batch_of(rows[:half]), ["k"], aggs),
                    K.group_aggregate(batch_of(rows[half:]), ["k"], aggs)]
        merged = K.merge_aggregate(
            ColumnarBatch.concat(partials[0].schema, partials), ["k"], aggs)

        ref = defaultdict(lambda: [0, 0, 0.0, None, None])
        for k, g, v, w in rows:
            r = ref[k]
            r[0] += v
            r[1] += 1
            r[2] += w
            r[3] = v if r[3] is None else min(r[3], v)
            r[4] = v if r[4] is None else max(r[4], v)

        got = {row[0]: row[1:] for row in merged.to_rows()}
        assert set(got) == set(ref)
        for k, (total, n, wsum, lo, hi) in ref.items():
            gt, gn, gm, glo, ghi = got[k]
            assert gt == total and gn == n
            assert math.isclose(gm, wsum / n, rel_tol=1e-9, abs_tol=1e-9)
            assert glo == lo and ghi == hi

    @given(rows_st)
    @settings(max_examples=60)
    def test_string_min_max_partial_plus_merge(self, rows):
        # regression: reduceat has no unicode loop — string min/max go
        # through the sorted-group layout instead
        aggs = [("min", "k", "lo"), ("max", "k", "hi")]
        half = len(rows) // 2
        partials = [K.group_aggregate(batch_of(rows[:half]), ["g"], aggs),
                    K.group_aggregate(batch_of(rows[half:]), ["g"], aggs)]
        merged = K.merge_aggregate(
            ColumnarBatch.concat(partials[0].schema, partials), ["g"], aggs)

        ref = defaultdict(list)
        for k, g, v, w in rows:
            ref[g].append(k)
        got = {row[0]: row[1:] for row in merged.to_rows()}
        assert set(got) == set(ref)
        for g, ks in ref.items():
            assert got[g] == (min(ks), max(ks))


class TestHashJoin:
    @given(rows_st, rows_st)
    @settings(max_examples=60)
    def test_matches_nested_loop_reference(self, left_rows, right_rows):
        right_schema = (("g", "int"), ("label", "str"))
        right_rows = [(g, k) for k, g, _, _ in right_rows]
        left = batch_of(left_rows)
        right = ColumnarBatch.from_rows(right_schema, right_rows)
        joined = K.hash_join(left, right, "g", "g")

        expected = []
        for lrow in left_rows:
            for g, label in right_rows:
                if lrow[1] == g:
                    expected.append(tuple(lrow) + (label,))
        assert sorted(joined.to_rows()) == sorted(expected)

    def test_name_clash_gets_suffix(self):
        left = ColumnarBatch.from_rows(
            (("id", "int"), ("x", "int")), [(1, 10)])
        right = ColumnarBatch.from_rows(
            (("id", "int"), ("x", "int")), [(1, 99)])
        out = K.hash_join(left, right, "id", "id")
        assert out.column_names == ["id", "x", "x_r"]
        assert out.to_rows() == [(1, 10, 99)]

    def test_mismatched_key_kinds_raise(self):
        # regression: casting float 2.5 to the left's int dtype made it
        # match int 2 — mixed-kind keys must error, not silently join
        left = ColumnarBatch.from_rows(
            (("id", "int"), ("x", "int")), [(2, 10)])
        right = ColumnarBatch.from_rows(
            (("id", "float"), ("y", "int")), [(2.5, 99)])
        with pytest.raises(TypeError, match="kind mismatch"):
            K.hash_join(left, right, "id", "id")


class TestSortLimit:
    @given(rows_st)
    @settings(max_examples=40)
    def test_sort_matches_python_sorted(self, rows):
        batch = batch_of(rows)
        out = K.sort_batch(batch, [("v", True), ("k", False)])
        expected = sorted(
            (tuple(r) for r in rows),
            key=lambda r: (r[2],))
        # verify primary key ordering and secondary (k desc) within ties
        got = out.to_rows()
        assert [r[2] for r in got] == [r[2] for r in expected]
        for i in range(len(got) - 1):
            if got[i][2] == got[i + 1][2]:
                assert got[i][0] >= got[i + 1][0]

    def test_descending_int_sort_puts_int64_min_last(self):
        # regression: the descending key was -x, and -(-2**63) wraps to
        # itself, so INT64_MIN sorted first
        batch = ColumnarBatch.from_rows(
            (("v", "int"),), [(3,), (-2**63,), (5,), (-1,), (2**63 - 1,)])
        out = K.sort_batch(batch, [("v", False)])
        assert out.column("v").tolist() == [2**63 - 1, 5, 3, -1, -2**63]

    @given(rows_st, st.integers(0, 10))
    def test_limit(self, rows, n):
        out = K.limit_batch(batch_of(rows), n)
        assert out.to_rows() == [tuple(r) for r in rows[:n]]
