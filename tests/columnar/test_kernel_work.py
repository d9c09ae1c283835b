"""Counting locks on the work of the join, group and split kernels.

Monkeypatched counters, deterministic at fixed inputs:

* an int-key join whose right keys are dense probes an offset table, so
  ``hash_join`` makes no ``np.searchsorted`` call;
* ``group_aggregate`` finds its group runs with ``bincount``, so it makes
  no ``np.searchsorted`` call either;
* ``split_by_partition`` builds its sub-batches without validating them
  again (no ``normalize_schema`` call) and counts string lengths once per
  str column, not once per sub-batch;
* ``hash_join``, ``group_aggregate`` and ``merge_aggregate`` build their
  outputs without the validating constructor either.
"""

import numpy as np
import pytest

import repro.columnar.batch as batch_module
from repro.columnar import kernels as K
from repro.columnar.batch import ColumnarBatch

from . import reference_kernels as R

LEFT_ROWS, RIGHT_ROWS, PARTITIONS = 12_800, 3_200, 64


def counting(monkeypatch, module, name, modules=()):
    counter = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    for target in (module,) + tuple(modules):
        monkeypatch.setattr(target, name, counted)
    return counter


@pytest.fixture
def searchsorted_calls(monkeypatch):
    return counting(monkeypatch, np, "searchsorted")


def int_join_sides():
    i = np.arange(LEFT_ROWS)
    left = ColumnarBatch((("k", "int"), ("q", "float")),
                         {"k": (i * 7919) % 4_000, "q": i * 0.5})
    j = np.arange(RIGHT_ROWS)
    right = ColumnarBatch((("k", "int"), ("name", "str")),
                          {"k": (j * 13) % 3_000,
                           "name": np.array([f"n{v % 97}" for v in j])})
    return left, right


def test_int_key_join_makes_no_searchsorted_call(searchsorted_calls):
    left, right = int_join_sides()
    joined = K.hash_join(left, right, "k", "k")
    assert searchsorted_calls[0] == 0
    assert joined == R.hash_join(left, right, "k", "k")


def test_group_aggregate_makes_no_searchsorted_call(searchsorted_calls):
    left, _ = int_join_sides()
    aggs = [("sum", "q", "total"), ("count", None, "n"), ("avg", "q", "m")]
    K.merge_aggregate(K.group_aggregate(left, ["k"], aggs), ["k"], aggs)
    assert searchsorted_calls[0] == 0


def test_split_validates_nothing_and_sizes_each_str_column_once(monkeypatch):
    i = np.arange(LEFT_ROWS)
    batch = ColumnarBatch(
        (("k", "int"), ("a", "str"), ("b", "str"), ("w", "float")),
        {"k": i, "a": np.array([f"a{v % 31}" for v in i]),
         "b": np.array(["é" * (v % 5) for v in i]), "w": i * 0.25})
    codes = K.hash_partition_codes(batch, ["k"], PARTITIONS)
    normalize = counting(monkeypatch, batch_module, "normalize_schema",
                         modules=(K,))
    str_len = counting(monkeypatch, np.char, "str_len")
    parts = K.split_by_partition(batch, codes, PARTITIONS)
    assert len(parts) == PARTITIONS
    assert normalize[0] == 0
    assert str_len[0] == 2


def test_join_and_aggregate_outputs_validate_nothing(monkeypatch):
    left, right = int_join_sides()
    aggs = [("sum", "q", "total"), ("count", None, "n"), ("avg", "q", "m"),
            ("min", "q", "lo"), ("max", "q", "hi")]
    normalize = counting(monkeypatch, batch_module, "normalize_schema",
                         modules=(K,))
    joined = K.hash_join(left, right, "k", "k")
    partial = K.group_aggregate(joined, ["name"], aggs)
    final = K.merge_aggregate(partial, ["name"], aggs)
    assert normalize[0] == 0
    monkeypatch.undo()
    assert joined == R.hash_join(left, right, "k", "k")
    assert final == ColumnarBatch(final.schema, final.columns)
    assert final.sim_size == ColumnarBatch(final.schema, final.columns).sim_size


def test_kernel_output_rejects_a_column_name_clash():
    left, _ = int_join_sides()
    with pytest.raises(ValueError, match="duplicate column name"):
        K.group_aggregate(left, ["k"], [("sum", "q", "k")])
