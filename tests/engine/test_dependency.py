"""Tests for shuffle dependencies."""


from repro.engine.dependency import ShuffleDependency
from repro.engine.partitioner import HashPartitioner

from ..conftest import make_pairs


class TestShuffleDependency:
    def test_unique_shuffle_ids(self, sc):
        rdd = sc.parallelize(make_pairs(10), 2)
        part = HashPartitioner(2)
        a = ShuffleDependency(rdd, part)
        b = ShuffleDependency(rdd, part)
        assert a.shuffle_id != b.shuffle_id

    def test_map_side_combine_requires_aggregator(self, sc):
        rdd = sc.parallelize(make_pairs(10), 2)
        dep = ShuffleDependency(rdd, HashPartitioner(2), aggregator=None,
                                map_side_combine=True)
        assert not dep.map_side_combine

    def test_map_side_combine_with_aggregator(self, sc):
        rdd = sc.parallelize(make_pairs(10), 2)
        dep = ShuffleDependency(rdd, HashPartitioner(2),
                                aggregator=lambda a, b: a + b,
                                map_side_combine=True)
        assert dep.map_side_combine

    def test_map_side_combine_shrinks_shuffle(self, sc):
        """With many duplicate keys, map-side combining must reduce the
        bytes written to the shuffle."""
        data = [("k", 1)] * 400

        def run(combine):
            from repro import StarkContext

            ctx = StarkContext(num_workers=2, cores_per_worker=2)
            rdd = ctx.parallelize(data, 4)
            if combine:
                out = rdd.reduce_by_key(lambda a, b: a + b,
                                        HashPartitioner(2))
            else:
                out = rdd.partition_by(HashPartitioner(2))
            out.count()
            return sum(
                t.shuffle_bytes_written
                for j in ctx.metrics.jobs for t in j.tasks
            )

        assert run(combine=True) < run(combine=False) / 10
