"""Tests for the lineage-graph utilities."""

import pytest

from repro.engine.lineage import (
    ancestors,
    recovery_cut,
    shuffle_boundaries,
)
from repro.engine.partitioner import HashPartitioner

from ..conftest import make_pairs


@pytest.fixture
def chain(sc):
    base = sc.parallelize(make_pairs(40), 4, name="src")
    shuffled = base.partition_by(HashPartitioner(4), name="shuffled")
    mapped = shuffled.map_values(lambda v: v + 1, name="mapped").cache()
    filtered = mapped.filter(lambda kv: True, name="filtered")
    return base, shuffled, mapped, filtered


class TestTraversal:
    def test_ancestors_topological(self, sc, chain):
        base, shuffled, mapped, filtered = chain
        order = [r.rdd_id for r in ancestors(filtered)]
        assert order.index(base.rdd_id) < order.index(shuffled.rdd_id)
        assert order.index(shuffled.rdd_id) < order.index(mapped.rdd_id)
        assert filtered.rdd_id not in order

    def test_ancestors_include_self(self, sc, chain):
        *_, filtered = chain
        order = ancestors(filtered, include_self=True)
        assert order[-1] is filtered

    def test_ancestors_dedup_diamond(self, sc):
        base = sc.parallelize(make_pairs(10), 2, name="base")
        left = base.map_values(lambda v: v)
        right = base.filter(lambda kv: True)
        joined = left.cogroup(right, partitioner=HashPartitioner(2))
        ids = [r.rdd_id for r in ancestors(joined)]
        assert ids.count(base.rdd_id) == 1

    def test_shuffle_boundaries(self, sc, chain):
        *_, filtered = chain
        assert len(shuffle_boundaries(filtered)) == 1


class TestRecoveryCut:
    def test_cut_stops_at_shuffle(self, sc, chain):
        base, shuffled, mapped, filtered = chain
        cut = recovery_cut(filtered)
        # Recovery reads the shuffle outputs produced from `base`.
        assert [r.rdd_id for r in cut] == [base.rdd_id]

    def test_cut_stops_at_checkpoint(self, sc, chain):
        base, shuffled, mapped, filtered = chain
        mapped.count()
        mapped.force_checkpoint()
        cut = recovery_cut(filtered)
        assert [r.rdd_id for r in cut] == [mapped.rdd_id]

    def test_cut_at_source(self, sc):
        rdd = sc.parallelize(make_pairs(10), 2, name="src")
        derived = rdd.map_values(lambda v: v)
        cut = recovery_cut(derived)
        assert [r.rdd_id for r in cut] == [rdd.rdd_id]
