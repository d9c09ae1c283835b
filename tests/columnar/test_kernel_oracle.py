"""The join, split, group and take kernels against their previous bodies.

``reference_kernels.py`` keeps the kernels as they were before the
offset-table join probe, the one-gather split, the bincount group starts
and the trusted batch constructor.  Every output must be byte-identical
to the reference's: same schema, dtypes (``<U`` widths included), values,
row order, ``sim_size`` and ``sim_memory_size``.  Split sub-batches must
also own their arrays: none may share memory with the input batch or
with a sibling.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.columnar import kernels as K
from repro.columnar.batch import ColumnarBatch

from . import reference_kernels as R

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

#: 1 and 7 narrow to uint8, 256 is the widest uint8 count, 257 needs
#: uint16, 70 000 keeps the int64 codes.
PARTITIONS = (1, 7, 256, 257, 70_000)

strs = st.one_of(
    st.sampled_from(["", "a", "é", "日本", "a b", "\U0001f600"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, float("inf"), float("nan")]),
    st.floats(-1e6, 1e6))
extremes = st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1,
                            INT64_MAX, 0, -1])


@st.composite
def int_keys(draw):
    """Two key lists: a dense run near a drawn base (the offset table),
    or a sparse draw over the whole int64 range (the fallback); either
    may hold the int64 extremes, duplicates, or nothing."""
    if draw(st.integers(0, 2)):
        base = draw(st.sampled_from([INT64_MIN, -7, 0, 1000,
                                     INT64_MAX - 4]))
        key = st.integers(0, 4).map(lambda off: base + off)
        near = st.integers(-3, 7).map(lambda off: base + off).filter(
            lambda k: INT64_MIN <= k <= INT64_MAX)
        left_key = st.one_of(near, extremes)
    else:
        key = left_key = st.one_of(extremes,
                                   st.integers(INT64_MIN, INT64_MAX))
    return (draw(st.lists(left_key, max_size=30)),
            draw(st.lists(key, max_size=30)))


@st.composite
def join_keys(draw):
    kind = draw(st.sampled_from(["int", "int", "float", "str"]))
    if kind == "int":
        left, right = draw(int_keys())
    else:
        value = floats if kind == "float" else strs
        pool = draw(st.lists(value, min_size=1, max_size=6))
        pick = st.sampled_from(pool)
        left = draw(st.lists(pick, max_size=30))
        right = draw(st.lists(pick, max_size=30))
    return kind, left, right


@st.composite
def batches(draw, max_rows=40):
    n = draw(st.integers(0, max_rows))
    cols = {"i": st.integers(INT64_MIN, INT64_MAX), "f": floats, "s": strs}
    kinds = {"i": "int", "f": "float", "s": "str"}
    names = draw(st.lists(st.sampled_from(sorted(cols)), min_size=1,
                          max_size=3, unique=True))
    schema = tuple((name, kinds[name]) for name in names)
    values = [draw(st.lists(cols[name], min_size=n, max_size=n))
              for name in names]
    return ColumnarBatch.from_rows(schema, list(zip(*values)))


def assert_same_batch(got, want):
    assert got.schema == want.schema
    assert list(got.columns) == list(want.columns)
    assert type(got.sim_size) is int and type(got.sim_memory_size) is int
    assert got.sim_size == want.sim_size
    assert got.sim_memory_size == want.sim_memory_size
    for name, _ in want.schema:
        a, b = got.columns[name], want.columns[name]
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestJoin:
    @given(join_keys(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_join_equals_reference(self, keys, data):
        kind, left_keys, right_keys = keys
        left = ColumnarBatch.from_rows(
            (("k", kind), ("x", "str")),
            [(k, data.draw(strs)) for k in left_keys])
        right = ColumnarBatch.from_rows(
            (("k2", kind), ("x", "int")),
            [(k, i) for i, k in enumerate(right_keys)])
        assert_same_batch(K.hash_join(left, right, "k", "k2"),
                          R.hash_join(left, right, "k", "k2"))


class TestSplit:
    @given(batches(), st.sampled_from(PARTITIONS), st.data())
    @settings(max_examples=80, deadline=None)
    def test_split_equals_reference(self, batch, n, data):
        code = st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
        pool = data.draw(st.lists(code, min_size=1, max_size=8))
        codes = np.array(data.draw(st.lists(
            st.sampled_from(pool), min_size=batch.num_rows,
            max_size=batch.num_rows)), dtype=np.int64)
        got = K.split_by_partition(batch, codes, n)
        want = R.split_by_partition(batch, codes, n)
        assert list(got) == list(want)
        for pid in want:
            assert_same_batch(got[pid], want[pid])
        arrays = [arr for sub in got.values() for arr in sub.columns.values()]
        for i, arr in enumerate(arrays):
            assert arr.base is None
            for other in list(batch.columns.values()) + arrays[i + 1:]:
                assert not np.shares_memory(arr, other)


class TestGroup:
    AGGS = [("sum", "v", "total"), ("count", None, "n"), ("avg", "v", "mean"),
            ("min", "v", "lo"), ("max", "v", "hi"), ("min", "s", "slo"),
            ("max", "s", "shi")]

    @given(st.lists(st.tuples(
        st.one_of(extremes, st.integers(-3, 3)), st.sampled_from([0.5, -0.0,
                                                                  float("nan")]),
        strs, st.integers(-1000, 1000)), max_size=40),
        st.sampled_from([["g"], ["f"], ["s"], ["g", "s"], ["f", "g"]]))
    @settings(max_examples=100, deadline=None)
    def test_group_and_merge_equal_reference(self, rows, keys):
        schema = (("g", "int"), ("f", "float"), ("s", "str"), ("v", "int"))
        batch = ColumnarBatch.from_rows(schema, rows)
        got = K.group_aggregate(batch, keys, self.AGGS)
        assert_same_batch(got, R.group_aggregate(batch, keys, self.AGGS))
        assert_same_batch(K.merge_aggregate(got, keys, self.AGGS),
                          R.merge_aggregate(got, keys, self.AGGS))


class TestTake:
    @given(batches(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_take_equals_reference(self, batch, data):
        n = batch.num_rows
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)), dtype=bool)
        index = np.array(data.draw(st.lists(
            st.integers(0, max(n - 1, 0)), max_size=20 if n else 0)),
            dtype=np.int64)
        for selector in (mask, index):
            assert_same_batch(batch.take(selector), R.take(batch, selector))
