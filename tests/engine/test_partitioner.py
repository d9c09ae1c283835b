"""Tests for partitioners: determinism, equality, range semantics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.engine.partitioner import (
    HashPartitioner,
    RangePartitioner,
    StaticRangePartitioner,
    stable_hash,
)


class TestStableHash:
    def test_deterministic_for_strings(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_different_strings_usually_differ(self):
        assert stable_hash("a") != stable_hash("b")

    def test_int_and_string_forms_differ(self):
        assert stable_hash(1) != stable_hash("1")

    def test_handles_many_types(self):
        for key in [b"bytes", "str", 42, -7, 3.14, True, False, None,
                    ("a", 1), (1, (2, 3))]:
            assert isinstance(stable_hash(key), int)

    def test_tuple_order_matters(self):
        assert stable_hash(("a", "b")) != stable_hash(("b", "a"))

    @given(st.one_of(st.text(), st.integers(), st.floats(allow_nan=False),
                     st.binary()))
    def test_hash_in_32bit_range(self, key):
        h = stable_hash(key)
        assert 0 <= h <= 0xFFFFFFFF

    @given(st.text())
    def test_stable_across_calls(self, key):
        assert stable_hash(key) == stable_hash(key)


class TestStableHashAgreesWithEquality:
    # regressions: numpy scalars fell through to repr ("5" on numpy 1.x,
    # "np.int64(5)" on 2.x), and -0.0 hashed by its own repr, so keys
    # that compare equal could land in different partitions
    @pytest.mark.parametrize("scalar, plain", [
        (np.int64(5), 5), (np.int32(-7), -7), (np.uint64(2**63), 2**63),
        (np.int64(-2**63), -2**63), (np.float64(1.5), 1.5),
        (np.float32(0.5), 0.5), (np.float64(-0.0), 0.0),
        ((np.int64(3), "a"), (3, "a"))])
    def test_numpy_scalars_hash_as_the_number_they_equal(self, scalar, plain):
        assert stable_hash(scalar) == stable_hash(plain)

    def test_negative_zero_hashes_as_zero(self):
        assert stable_hash(-0.0) == stable_hash(0.0)
        assert stable_hash((-0.0, 1)) == stable_hash((0.0, 1))

    def test_nan_hashes_alike_whatever_its_sign(self):
        assert stable_hash(float("nan")) == stable_hash(-float("nan"))

    def test_row_partition_by_co_locates_signed_zeros(self, sc):
        parts = (sc.parallelize([(0.0, "a"), (-0.0, "b")], 2)
                 .partition_by(HashPartitioner(2)).collect_partitions())
        assert sorted(len(p) for p in parts) == [0, 2]

    def test_cogroup_meets_signed_zeros(self, sc):
        left = sc.parallelize([(0.0, "a")], 1)
        right = sc.parallelize([(-0.0, "b")], 1)
        grouped = left.cogroup(right, partitioner=HashPartitioner(2)).collect()
        assert len(grouped) == 1
        _, (lvals, rvals) = grouped[0]
        assert list(lvals) == ["a"] and list(rvals) == ["b"]


class TestHashPartitioner:
    def test_partition_in_range(self):
        p = HashPartitioner(8)
        for key in ["a", "b", 1, 2.5, ("x", 1)]:
            assert 0 <= p.get_partition(key) < 8

    def test_equal_when_same_count(self):
        assert HashPartitioner(4) == HashPartitioner(4)

    def test_unequal_when_different_count(self):
        assert HashPartitioner(4) != HashPartitioner(8)

    def test_unequal_to_range_partitioner(self):
        assert HashPartitioner(4) != StaticRangePartitioner([10, 20, 30])

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_hashable(self):
        assert len({HashPartitioner(4), HashPartitioner(4)}) == 1

    @given(st.lists(st.integers(), min_size=50, max_size=200))
    def test_distribution_covers_partitions(self, keys):
        p = HashPartitioner(2)
        pids = {p.get_partition(k) for k in keys}
        assert pids <= {0, 1}


class TestStaticRangePartitioner:
    def test_boundaries_inclusive_on_left_partition(self):
        p = StaticRangePartitioner([10, 20])
        assert p.get_partition(5) == 0
        assert p.get_partition(10) == 0
        assert p.get_partition(11) == 1
        assert p.get_partition(20) == 1
        assert p.get_partition(21) == 2

    def test_num_partitions_is_bounds_plus_one(self):
        assert StaticRangePartitioner([1, 2, 3]).num_partitions == 4

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            StaticRangePartitioner([5, 3])

    def test_rejects_duplicate_bounds(self):
        with pytest.raises(ValueError):
            StaticRangePartitioner([5, 5])

    def test_uniform_splits_domain(self):
        p = StaticRangePartitioner.uniform(0, 100, 4)
        assert p.num_partitions == 4
        counts = [0] * 4
        for key in range(100):
            counts[p.get_partition(key)] += 1
        assert max(counts) - min(counts) <= 1

    def test_uniform_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            StaticRangePartitioner.uniform(10, 10, 2)

    def test_equality_is_by_bounds(self):
        assert StaticRangePartitioner([1, 2]) == StaticRangePartitioner([1, 2])
        assert StaticRangePartitioner([1, 2]) != StaticRangePartitioner([1, 3])

    @given(st.integers(min_value=-1000, max_value=2000))
    def test_monotone_partition_assignment(self, key):
        p = StaticRangePartitioner.uniform(0, 1000, 8)
        pid = p.get_partition(key)
        assert 0 <= pid < 8
        assert p.get_partition(key + 1) >= pid


class TestRangePartitioner:
    def test_samples_define_balanced_bounds(self):
        keys = list(range(1000))
        p = RangePartitioner(4, keys)
        counts = [0] * p.num_partitions
        for key in keys:
            counts[p.get_partition(key)] += 1
        assert max(counts) < 2 * (1000 / 4)

    def test_two_instances_never_equal(self):
        # Spark-R's defining property: a fresh RangePartitioner per RDD
        # breaks co-partitioning even on identical samples.
        keys = list(range(100))
        assert RangePartitioner(4, keys) != RangePartitioner(4, keys)

    def test_instance_equal_to_itself(self):
        p = RangePartitioner(4, range(100))
        assert p == p

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            RangePartitioner(4, [])

    def test_tiny_sample_collapses_partitions(self):
        p = RangePartitioner(8, [1])
        assert p.num_partitions <= 2
