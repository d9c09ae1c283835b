"""Tests for the cost model and record sizer."""

from collections import namedtuple

import pytest
from hypothesis import given, strategies as st

from repro.cluster.cost_model import CostModel, RecordSizer, SimStr
from repro.columnar.batch import ColumnarBatch


class TestCostModel:
    def setup_method(self):
        self.model = CostModel()

    def test_compute_cost_linear_in_records(self):
        assert self.model.compute_cost(2000) == pytest.approx(
            2 * self.model.compute_cost(1000)
        )

    def test_compute_cost_zero_records(self):
        assert self.model.compute_cost(0) == 0.0

    def test_disk_read_of_120mb_takes_about_a_second(self):
        assert self.model.disk_read_cost(120e6) == pytest.approx(1.0)

    def test_network_has_fixed_latency(self):
        assert self.model.network_cost(0) == 0.0
        small = self.model.network_cost(1)
        assert small >= self.model.network_latency

    def test_network_faster_than_disk_is_false_here(self):
        # 1 GbE effective < spinning disk sequential in this calibration;
        # the remote penalty = network + remote disk.
        one_gb = 1e9
        assert self.model.network_cost(one_gb) > self.model.disk_read_cost(one_gb)

    def test_memory_read_much_faster_than_disk(self):
        size = 100e6
        assert self.model.memory_read_cost(size) < self.model.disk_read_cost(size) / 10

    def test_shuffle_reduce_costs_more_than_narrow_compute(self):
        assert self.model.shuffle_reduce_cost(1000) > self.model.compute_cost(1000)

    def test_gc_baseline_fraction(self):
        gc = self.model.gc_cost(10.0, 0.3)
        assert gc == pytest.approx(10.0 * self.model.gc_base_fraction)

    def test_gc_explodes_past_knee(self):
        relaxed = self.model.gc_cost(10.0, 0.5)
        pressured = self.model.gc_cost(10.0, 0.95)
        assert pressured > 3 * relaxed

    def test_gc_clamps_utilisation(self):
        assert self.model.gc_cost(1.0, 1.5) == self.model.gc_cost(1.0, 1.0)
        assert self.model.gc_cost(1.0, -0.5) == self.model.gc_cost(1.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=100.0))
    def test_gc_non_negative_and_monotone_in_compute(self, u, compute):
        gc = self.model.gc_cost(compute, u)
        assert gc >= 0.0
        assert gc <= self.model.gc_cost(compute + 1.0, u)

    @given(st.floats(min_value=0.0, max_value=0.99))
    def test_gc_monotone_in_utilisation(self, u):
        assert self.model.gc_cost(1.0, u) <= self.model.gc_cost(1.0, u + 0.01) + 1e-12


class TestRecordSizer:
    def setup_method(self):
        self.sizer = RecordSizer()

    def test_string_size_includes_length(self):
        small = self.sizer.size_of("ab")
        large = self.sizer.size_of("ab" * 100)
        assert large - small == 198

    def test_tuple_recurses(self):
        assert self.sizer.size_of(("key", "value")) > self.sizer.size_of("key")

    def test_int_and_float_have_fixed_payload(self):
        assert self.sizer.size_of(5) == self.sizer.size_of(123456789)
        assert self.sizer.size_of(1.5) == self.sizer.size_of(5)

    def test_none_has_base_size(self):
        assert self.sizer.size_of(None) == self.sizer.base + 8

    def test_dict_sums_items(self):
        d = {"a": 1, "b": 2}
        assert self.sizer.size_of(d) > self.sizer.size_of({"a": 1})

    def test_partition_size_is_sum(self):
        records = [("k", "v")] * 10
        assert self.sizer.size_of_partition(records) == \
            10 * self.sizer.size_of(("k", "v"))

    @pytest.mark.parametrize("kwargs", [
        {"base": -1}, {"memory_overhead": 0}, {"memory_overhead": -2.5},
        {"memory_overhead": float("inf")}, {"memory_overhead": float("nan")}])
    def test_rejects_sizes_that_never_fill_a_cache(self, kwargs):
        # A negative base yields negative block sizes, a non-positive
        # overhead weightless cached blocks: either way nothing evicts.
        # A non-finite overhead has no integer ratio for in_memory_size's
        # exactness check (and prices every block at inf / nan).
        with pytest.raises(ValueError):
            RecordSizer(**kwargs)

    def test_opaque_object_has_default_size(self):
        class Thing:
            pass

        assert self.sizer.size_of(Thing()) == self.sizer.base + 48

    def test_cogroup_size_is_the_walk_of_the_grouped_records(self):
        left = [(1, "ab"), (2, SimStr("c", sim_size=90)), (1, 2.5)]
        right = [[SimStr("x", sim_size=7), (3, 4)], (1.0, None)]
        out = [(1, (["ab", 2.5], [None])), (2, ([SimStr("c", 90)], [])),
               (SimStr("x", sim_size=7), ([], [(3, 4)]))]
        sizes = [self.sizer.size_of_partition(p) for p in (left, right)]
        assert self.sizer.size_of_cogroup(
            [left, right], sizes, [k for k, _ in out]) == \
            self.sizer.size_of_partition(out)

    @pytest.mark.parametrize("record", [
        "ab", (1, 2, 3), [1], namedtuple("P", "k v")(1, 2), {1: 2, 3: 4}])
    def test_cogroup_size_needs_exact_pairs(self, record):
        part = [(1, 2), record]
        assert self.sizer.size_of_cogroup(
            [part], [self.sizer.size_of_partition(part)], [1]) is None

    @given(st.lists(st.text(max_size=50), max_size=30))
    def test_partition_size_non_negative_and_additive(self, values):
        total = self.sizer.size_of_partition(values)
        assert total == sum(self.sizer.size_of(v) for v in values)


# ---- the type-dispatched walker against the recursive definition -------------


def reference_payload(value):
    """``RecordSizer._payload`` as it stood before the dispatch walker."""
    declared = getattr(value, "sim_size", None)
    if declared is not None:
        return int(declared)
    if value is None or isinstance(value, (bool, int, float)):
        return 8
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, (tuple, list)):
        return sum(reference_payload(v) for v in value) + 8 * len(value)
    if isinstance(value, dict):
        return sum(reference_payload(k) + reference_payload(v)
                   for k, v in value.items())
    return 48


def reference_in_memory_size(sizer, records):
    total = 0.0
    for r in records:
        declared = getattr(r, "sim_memory_size", None)
        if declared is not None:
            total += sizer.base + declared
        else:
            total += (sizer.base + reference_payload(r)) * sizer.memory_overhead
    return total


class SizedInt(int):
    """An ``int`` subclass declaring its size — as a float, to pin the
    ``int(declared)`` truncation."""

    sim_size = 1234.75


class PlainStr(str):
    """A ``str`` subclass declaring nothing: sized by its length."""


class Opaque:
    pass


class HeapDeclared:
    """Declares its heap footprint but not its serialized size."""

    def __init__(self, heap):
        self.sim_memory_size = heap


Pair = namedtuple("Pair", "left right")

BATCH = ColumnarBatch.from_rows([("k", "str"), ("v", "int")],
                                [("ab", 1), ("c", 2)])

hashable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=20), st.binary(max_size=20),
    st.builds(SimStr, st.text(max_size=5),
              st.one_of(st.none(), st.integers(0, 2 ** 52))),
    st.builds(SizedInt, st.integers()), st.builds(PlainStr, st.text(max_size=9)),
)
leaves = st.one_of(
    hashable_leaves, st.builds(Opaque), st.just(BATCH),
    st.builds(HeapDeclared, st.one_of(st.integers(0, 10 ** 9),
                                      st.floats(0, 1e9))))
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        st.dictionaries(hashable_leaves, children, max_size=3)),
    max_leaves=12)
sizers = st.builds(
    RecordSizer, base=st.integers(0, 64),
    memory_overhead=st.sampled_from([2.5, 1.1, 3, 0.75, 1 / 3]))


class TestWalkerMatchesRecursiveDefinition:
    @given(values)
    def test_size_of(self, value):
        sizer = RecordSizer()
        assert sizer.size_of(value) == sizer.base + reference_payload(value)

    @given(sizers, st.lists(values, max_size=6))
    def test_partition_sizes(self, sizer, records):
        serialized = sum(sizer.base + reference_payload(r) for r in records)
        heap = reference_in_memory_size(sizer, records)
        assert sizer.size_of_partition(records) == serialized
        assert sizer.in_memory_size(records) == heap
        # The engine's single-walk form: exact, not approximately equal,
        # whether or not the closed form applies (it does not for 1.1,
        # 1/3, totals past 2**53 / 5, or a record declaring its heap).
        assert sizer.in_memory_size(records, serialized=serialized) == heap
        assert type(sizer.in_memory_size(records, serialized)) is float

    @given(sizers, st.lists(values, max_size=6))
    def test_iterables_are_consumed_once(self, sizer, records):
        assert sizer.size_of_partition(r for r in records) == \
            sizer.size_of_partition(records)
        assert sizer.in_memory_size(iter(records)) == \
            reference_in_memory_size(sizer, records)
