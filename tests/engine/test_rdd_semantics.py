"""RDD transformation semantics tested against plain-Python references.

These are the engine's correctness tests: every transformation's result
must equal what the equivalent Python code produces, regardless of how
partitioning, caching, and scheduling distribute the work.
"""

from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

from repro.engine.partitioner import HashPartitioner, StaticRangePartitioner
from repro.engine.transforms import MapPartitionsRDD

from ..conftest import make_pairs

pairs_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20), st.integers()),
    max_size=60,
)


class TestBasicActions:
    def test_count(self, sc):
        rdd = sc.parallelize(list(range(100)), 4)
        assert rdd.count() == 100

    def test_collect_preserves_multiset(self, sc):
        data = [3, 1, 4, 1, 5, 9, 2, 6]
        rdd = sc.parallelize(data, 3)
        assert Counter(rdd.collect()) == Counter(data)

    def test_collect_partitions_cover_data(self, sc):
        data = list(range(10))
        parts = sc.parallelize(data, 3).collect_partitions()
        assert len(parts) == 3
        assert sorted(x for part in parts for x in part) == data

    def test_empty_partitions_allowed(self, sc):
        rdd = sc.parallelize([1], 4)
        assert rdd.count() == 1


class TestNarrowTransforms:
    def test_map(self, sc):
        rdd = sc.parallelize([1, 2, 3], 2).map(lambda x: x * 10)
        assert sorted(rdd.collect()) == [10, 20, 30]

    def test_filter(self, sc):
        rdd = sc.parallelize(list(range(20)), 4).filter(lambda x: x % 2 == 0)
        assert sorted(rdd.collect()) == list(range(0, 20, 2))

    def test_flat_map(self, sc):
        rdd = sc.parallelize([1, 2], 2).flat_map(lambda x: [x] * x)
        assert sorted(rdd.collect()) == [1, 2, 2]

    def test_map_partitions(self, sc):
        rdd = MapPartitionsRDD(sc.parallelize(list(range(10)), 2),
                               lambda part: [sum(part)])
        assert sum(rdd.collect()) == sum(range(10))

    def test_chained_transforms(self, sc):
        rdd = (
            sc.parallelize(list(range(50)), 4)
            .map(lambda x: x + 1)
            .filter(lambda x: x % 3 == 0)
            .map(lambda x: x * 2)
        )
        expected = [(x + 1) * 2 for x in range(50) if (x + 1) % 3 == 0]
        assert sorted(rdd.collect()) == sorted(expected)

    @given(data=st.lists(st.integers(), max_size=50))
    @settings(max_examples=20, deadline=None)
    def test_map_filter_equivalence(self, data):
        from repro import StarkContext

        sc = StarkContext(num_workers=2, cores_per_worker=2)
        rdd = sc.parallelize(data, 3).map(lambda x: x * 2).filter(lambda x: x > 0)
        expected = [x * 2 for x in data if x * 2 > 0]
        assert Counter(rdd.collect()) == Counter(expected)


class TestShuffleTransforms:
    def test_partition_by_routes_all_keys(self, sc):
        data = make_pairs(100)
        part = HashPartitioner(4)
        rdd = sc.parallelize(data, 4).partition_by(part)
        parts = rdd.collect_partitions()
        for pid, records in enumerate(parts):
            for key, _ in records:
                assert part.get_partition(key) == pid
        assert Counter(r for part_ in parts for r in part_) == Counter(data)

    def test_partition_by_same_partitioner_is_noop(self, sc):
        part = HashPartitioner(4)
        rdd = sc.parallelize(make_pairs(20), 4, partitioner=part)
        assert rdd.partition_by(part) is rdd

    def test_reduce_by_key(self, sc):
        data = make_pairs(100, num_keys=7)
        rdd = sc.parallelize(data, 4).reduce_by_key(lambda a, b: a + b)
        expected = defaultdict(int)
        for k, v in data:
            expected[k] += v
        assert dict(rdd.collect()) == dict(expected)

    def test_reduce_by_key_on_prepartitioned_is_narrow(self, sc):
        part = HashPartitioner(4)
        rdd = sc.parallelize(make_pairs(40), 4).partition_by(part)
        reduced = rdd.reduce_by_key(lambda a, b: a + b, part)
        assert not reduced.shuffle_dependencies()
        expected = defaultdict(int)
        for k, v in make_pairs(40):
            expected[k] += v
        assert dict(reduced.collect()) == dict(expected)

    def test_group_by_key(self, sc):
        data = [("a", 1), ("b", 2), ("a", 3)]
        rdd = sc.parallelize(data, 2).group_by_key(HashPartitioner(2))
        result = {k: sorted(v) for k, v in rdd.collect()}
        assert result == {"a": [1, 3], "b": [2]}

    def test_range_partition_orders_partitions(self, sc):
        part = StaticRangePartitioner.uniform(0, 100, 4)
        data = [(k, k) for k in range(100)]
        rdd = sc.parallelize(data, 4).partition_by(part)
        parts = rdd.collect_partitions()
        maxes = [max(k for k, _ in p) for p in parts if p]
        assert maxes == sorted(maxes)


class TestCoGroupAndJoin:
    def test_cogroup_two_rdds(self, sc):
        a = sc.parallelize([("k1", 1), ("k2", 2)], 2)
        b = sc.parallelize([("k1", 10), ("k3", 30)], 2)
        result = dict(a.cogroup(b).collect())
        assert sorted(result["k1"][0]) == [1]
        assert sorted(result["k1"][1]) == [10]
        assert result["k2"] == ([2], [])
        assert result["k3"] == ([], [30])

    def test_cogroup_many_rdds(self, sc):
        part = HashPartitioner(3)
        rdds = [
            sc.parallelize([(f"k{j}", i) for j in range(5)], 3).partition_by(part)
            for i in range(4)
        ]
        result = dict(rdds[0].cogroup(*rdds[1:]).collect())
        assert len(result) == 5
        for key, groups in result.items():
            assert len(groups) == 4
            assert [g[0] for g in groups] == [0, 1, 2, 3]

    def test_cogroup_copartitioned_is_narrow(self, sc):
        part = HashPartitioner(4)
        a = sc.parallelize(make_pairs(20), 4).partition_by(part)
        b = sc.parallelize(make_pairs(20), 4).partition_by(part)
        cg = a.cogroup(b)
        assert not cg.shuffle_dependencies()

    def test_cogroup_mismatched_partitioner_shuffles(self, sc):
        part = HashPartitioner(4)
        a = sc.parallelize(make_pairs(20), 4).partition_by(part)
        b = sc.parallelize(make_pairs(20), 4)  # unpartitioned
        cg = a.cogroup(b, partitioner=part)
        assert len(cg.shuffle_dependencies()) == 1

    def test_join(self, sc):
        a = sc.parallelize([("k1", 1), ("k2", 2), ("k1", 5)], 2)
        b = sc.parallelize([("k1", "x"), ("k2", "y"), ("k4", "z")], 2)
        result = sorted(a.join(b).collect())
        assert result == [("k1", (1, "x")), ("k1", (5, "x")), ("k2", (2, "y"))]

    @given(pairs_strategy, pairs_strategy)
    @settings(max_examples=15, deadline=None)
    def test_join_matches_reference(self, left, right):
        from repro import StarkContext

        sc = StarkContext(num_workers=2, cores_per_worker=2)
        a = sc.parallelize(left, 3)
        b = sc.parallelize(right, 2)
        result = Counter(a.join(b).collect())
        expected = Counter(
            (k, (lv, rv)) for k, lv in left for k2, rv in right if k == k2
        )
        assert result == expected


class TestCaching:
    def test_cached_rdd_returns_same_results(self, sc):
        rdd = sc.parallelize(list(range(50)), 4).map(lambda x: x * 2).cache()
        first = sorted(rdd.collect())
        second = sorted(rdd.collect())
        assert first == second == [x * 2 for x in range(50)]

    def test_cache_makes_second_job_faster(self, sc):
        rdd = sc.parallelize(make_pairs(500), 4).partition_by(
            HashPartitioner(4)
        ).cache()
        rdd.count()
        first = sc.metrics.last_job().makespan
        rdd.count()
        second = sc.metrics.last_job().makespan
        assert second < first

    def test_unpersist_removes_blocks(self, sc):
        rdd = sc.parallelize(list(range(10)), 2).cache()
        rdd.count()
        assert sc.block_manager_master.cached_partitions_of(rdd.rdd_id)
        rdd.unpersist()
        assert not sc.block_manager_master.cached_partitions_of(rdd.rdd_id)

    def test_shuffle_stage_skipped_on_second_job(self, sc):
        rdd = sc.parallelize(make_pairs(50), 4).partition_by(HashPartitioner(4))
        rdd.count()
        rdd.count()
        assert sc.metrics.last_job().skipped_stages == 1
