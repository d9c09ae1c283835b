"""Idempotence regression tests: repeated jobs must be bit-identical.

Shuffle map outputs persist across jobs, so any code path that mutates
records stored in them corrupts every later job reading the same
shuffle.  These tests pin the specific shapes that once failed (found by
the model-based hypothesis suite) plus broader repeats.
"""

from collections import Counter


from repro import StarkContext
from repro.engine.partitioner import HashPartitioner

from ..conftest import make_pairs


class TestRepeatedJobs:
    def test_group_by_key_twice(self, sc):
        """Regression: group_by_key's accumulator used to extend lists
        in place, mutating persisted map outputs between runs."""
        data = [(0, 0), (0, 0)]
        rdd = sc.parallelize(data, 2).map_values(lambda v: v + 1) \
            .group_by_key(HashPartitioner(2)).map_values(sum)
        first = rdd.collect()
        second = rdd.collect()
        third = rdd.collect()
        assert first == second == third == [(0, 2)]

    def test_group_by_key_many_repeats(self, sc):
        data = make_pairs(60, num_keys=5)
        rdd = sc.parallelize(data, 3).group_by_key(HashPartitioner(3))
        expected = {k: sorted(v) for k, v in rdd.collect()}
        for _ in range(4):
            assert {k: sorted(v) for k, v in rdd.collect()} == expected

    def test_reduce_by_key_twice(self, sc):
        rdd = sc.parallelize(make_pairs(80), 4).reduce_by_key(
            lambda a, b: a + b, HashPartitioner(4)
        )
        assert Counter(rdd.collect()) == Counter(rdd.collect())

    def test_cogroup_twice(self, sc):
        part = HashPartitioner(3)
        a = sc.parallelize(make_pairs(30), 3).partition_by(part).cache()
        b = sc.parallelize(make_pairs(30), 3).partition_by(part).cache()
        merged = a.cogroup(b)
        first = {k: tuple(map(sorted, v)) for k, v in merged.collect()}
        second = {k: tuple(map(sorted, v)) for k, v in merged.collect()}
        assert first == second

    def test_shuffle_outputs_unchanged_after_reduce(self, sc):
        """Reading a shuffle must not alter the stored records."""
        rdd = sc.parallelize(make_pairs(40, num_keys=4), 4).group_by_key(
            HashPartitioner(2)
        )
        rdd.collect()
        tracker = sc.map_output_tracker
        shuffle_id = rdd.parents()[0].shuffle_dependencies()[0].shuffle_id \
            if rdd.parents()[0].shuffle_dependencies() else \
            rdd.shuffle_dependencies()[0].shuffle_id
        snapshot = {
            (m, r): [tuple(map(repr, rec)) for rec in out.records]
            for m in range(tracker.num_maps(shuffle_id))
            for r, out in tracker._outputs[shuffle_id][m].items()
        }
        rdd.collect()
        after = {
            (m, r): [tuple(map(repr, rec)) for rec in out.records]
            for m in range(tracker.num_maps(shuffle_id))
            for r, out in tracker._outputs[shuffle_id][m].items()
        }
        assert snapshot == after

    def test_repeats_with_eviction_pressure(self):
        """Tiny cache: every run recomputes through the shuffle; results
        must still be stable."""
        sc = StarkContext(num_workers=2, cores_per_worker=2,
                          memory_per_worker=1e6)
        rdd = sc.parallelize(make_pairs(100, num_keys=7), 4).group_by_key(
            HashPartitioner(4)
        ).map_values(len).cache()
        expected = dict(rdd.collect())
        for _ in range(3):
            assert dict(rdd.collect()) == expected
