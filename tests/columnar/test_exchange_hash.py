"""The columnar exchange's whole-column hash against its references.

``hash_partition_codes`` hashes int64 columns through CRC32 byte tables
and folds compound keys in numpy; ``split_by_partition`` cuts one
stable sort into slices.  Both replaced simpler definitions, which are
kept here verbatim as oracles:

* ``reference_hash_partition_codes`` — factorize the key columns, call
  ``stable_hash`` once per unique key, gather;
* ``reference_split_by_partition`` — one boolean mask per partition.

The codes must equal the reference's, and the row engine's
``HashPartitioner``, over every column kind and the full int64 range;
the sub-batches must be byte-identical.  A counting test locks the work:
no Python ``stable_hash`` call per int key.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.partitioner as partitioner_module
from repro.columnar import kernels as K
from repro.columnar.batch import ColumnarBatch
from repro.engine.partitioner import HashPartitioner, stable_hash

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


# ---- the replaced definitions (verbatim) ----------------------------------

def reference_factorize(batch, key_columns):
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


def reference_hash_partition_codes(batch, key_columns, num_partitions):
    codes, keys = reference_factorize(batch, key_columns)
    lut = np.fromiter(
        (stable_hash(k) % num_partitions for k in keys),
        dtype=np.int64, count=len(keys))
    return lut[codes] if len(keys) else np.zeros(batch.num_rows, np.int64)


def reference_split_by_partition(batch, part_codes, num_partitions):
    out = {}
    for pid in range(num_partitions):
        mask = part_codes == pid
        if mask.any():
            out[pid] = batch.take(mask)
    return out


# ---- strategies ------------------------------------------------------------

ints = st.one_of(
    st.sampled_from([0, -1, 1, INT64_MIN, INT64_MIN + 1, INT64_MAX,
                     INT64_MAX - 1, 255, 256, -256, -257]),
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(-3, 3))
floats = st.one_of(
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"),
                     5e-324, -5e-324, 2.2250738585072014e-308, 1.5, -1.5]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
strs = st.one_of(
    st.sampled_from(["", "a", "é", "日本", "a b", "\u00df\u200b", "\U0001f600"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
VALUES = {"int": ints, "float": floats, "str": strs}


@st.composite
def batches(draw, min_columns=1, max_columns=3, max_rows=40):
    n = draw(st.integers(0, max_rows))
    kinds = draw(st.lists(st.sampled_from(sorted(VALUES)),
                          min_size=min_columns, max_size=max_columns))
    schema = tuple((f"c{i}", kind) for i, kind in enumerate(kinds))
    columns = [draw(st.lists(VALUES[kind], min_size=n, max_size=n))
               for kind in kinds]
    return ColumnarBatch.from_rows(schema, list(zip(*columns)))


def same_batch(a, b):
    """Equal schema and byte-identical columns (NaN-safe, dtype-exact)."""
    return a.schema == b.schema and a.sim_size == b.sim_size and all(
        a.columns[name].dtype == b.columns[name].dtype
        and a.columns[name].tobytes() == b.columns[name].tobytes()
        for name, _ in a.schema)


# ---- codes -----------------------------------------------------------------

class TestCodesEqualReference:
    @given(batches(), st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_single_and_compound_keys(self, batch, n):
        keys = batch.column_names
        got = K.hash_partition_codes(batch, keys, n)
        assert got.dtype == np.int64
        assert got.tolist() == \
            reference_hash_partition_codes(batch, keys, n).tolist()

    @given(st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=200),
           st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_full_int64_range(self, values, n):
        batch = ColumnarBatch.from_rows((("k", "int"),),
                                        [(v,) for v in values])
        got = K.hash_partition_codes(batch, ["k"], n)
        assert got.tolist() == \
            reference_hash_partition_codes(batch, ["k"], n).tolist()

    @pytest.mark.parametrize("kinds", [
        ("int",), ("float",), ("str",), ("int", "str"),
        ("float", "int", "str")])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_empty_batch(self, kinds, n):
        batch = ColumnarBatch.empty(
            tuple((f"c{i}", kind) for i, kind in enumerate(kinds)))
        got = K.hash_partition_codes(batch, batch.column_names, n)
        assert got.dtype == np.int64 and got.tolist() == []

    def test_no_key_columns_is_an_error(self):
        batch = ColumnarBatch.from_rows((("k", "int"),), [(1,)])
        with pytest.raises(ValueError):
            K.hash_partition_codes(batch, [], 4)


class TestRowPartitionerParity:
    @given(batches(), st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_every_kind(self, batch, n):
        row_part = HashPartitioner(n)
        single = len(batch.schema) == 1
        expected = [row_part.get_partition(row[0] if single else row)
                    for row in batch.to_rows()]
        assert K.hash_partition_codes(
            batch, batch.column_names, n).tolist() == expected

    @pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0]])
    def test_signed_zeros_go_where_the_row_engine_sends_zero(self, values):
        # regression: np.unique keeps whichever zero comes first, and
        # -0.0 used to hash by its own repr
        batch = ColumnarBatch.from_rows((("k", "float"),),
                                        [(v,) for v in values])
        for n in (2, 3, 64):
            zero = HashPartitioner(n).get_partition(0.0)
            assert K.hash_partition_codes(batch, ["k"], n).tolist() == \
                [zero, zero]


# ---- work ------------------------------------------------------------------

class TestHashWorkLock:
    """Deterministic counts of Python ``stable_hash`` calls per batch."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = [0]
        original = partitioner_module.stable_hash

        def counting(key):
            counter[0] += 1
            return original(key)

        monkeypatch.setattr(partitioner_module, "stable_hash", counting)
        monkeypatch.setattr(K, "stable_hash", counting, raising=False)
        return counter

    def test_int_keys_make_no_python_hash_call(self, calls):
        batch = ColumnarBatch.from_rows(
            (("k", "int"), ("j", "int")),
            [(i * 7919 - 5000, i % 3) for i in range(1000)])
        K.hash_partition_codes(batch, ["k"], 8)
        K.hash_partition_codes(batch, ["k", "j"], 8)
        assert calls[0] == 0

    def test_str_keys_hash_each_distinct_value_once(self, calls):
        batch = ColumnarBatch.from_rows(
            (("s", "str"), ("k", "int")),
            [(f"v{i % 10}", i) for i in range(1000)])
        K.hash_partition_codes(batch, ["s"], 8)
        assert calls[0] <= 10
        calls[0] = 0
        K.hash_partition_codes(batch, ["k", "s"], 8)
        assert calls[0] <= 10


# ---- split -----------------------------------------------------------------

class TestSplitEqualsReference:
    @given(batches(max_rows=60), st.integers(1, 64), st.data())
    @settings(max_examples=200, deadline=None)
    def test_sub_batches_byte_identical(self, batch, n, data):
        codes = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=batch.num_rows,
                               max_size=batch.num_rows)),
            dtype=np.int64)
        got = K.split_by_partition(batch, codes, n)
        want = reference_split_by_partition(batch, codes, n)
        assert list(got) == list(want)
        assert all(same_batch(got[pid], want[pid]) for pid in want)
