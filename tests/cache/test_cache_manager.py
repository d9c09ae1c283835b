"""CacheManager integration: policies, the insert gate and declared
uses wired into a real StarkContext running real jobs."""

import pytest

from repro.cache.policy import set_default_policy
from repro.cluster.cost_model import SimStr
from repro.engine.context import StarkConfig, StarkContext
from repro.service import TenantCacheQuotas


def make_context(**config_kwargs):
    return StarkContext(num_workers=2, cores_per_worker=2,
                        memory_per_worker=1e9,
                        config=StarkConfig(**config_kwargs))


def dataset(sc, payload_bytes=1000, partitions=4, read_cost="disk", name="d"):
    payload = SimStr("x" * 8, sim_size=payload_bytes)

    def generate(pid):
        return [(pid * 10 + i, payload) for i in range(4)]

    return sc.generated(generate, partitions, read_cost=read_cost, name=name)


class TestPolicySelection:
    def test_config_selects_store_policies(self):
        sc = make_context(cache_policy="lrc")
        for store in sc.block_manager_master.stores.values():
            assert store.policy.name == "lrc"

    def test_unknown_policy_fails_fast(self):
        with pytest.raises(ValueError, match="unknown cache policy"):
            make_context(cache_policy="belady")

    def test_unknown_policy_fails_fast_under_the_broker(self):
        # The broker supplies every store's policy, so the name is never
        # used; it is still a typo and must not pass silently.
        with pytest.raises(ValueError, match="unknown cache policy"):
            make_context(cache_broker=True, cache_policy="belady")

    def test_default_setter_shares_the_name_check(self):
        with pytest.raises(ValueError, match="unknown cache policy"):
            set_default_policy("belady")
        assert StarkConfig().cache_policy == "lru"

    def test_defaults_feed_new_configs(self):
        set_default_policy("cost")
        try:
            assert StarkConfig().cache_policy == "cost"
        finally:
            set_default_policy("lru")
        assert StarkConfig().cache_policy == "lru"


class TestAdmissionIntegration:
    """There is no cost threshold: every block is admitted unless its
    tenant's quota refuses it (``perf/`` reads both counters into
    ``cache.admit_ratio``)."""

    def test_zero_threshold_caches(self):
        sc = make_context()
        rdd = dataset(sc).cache()
        rdd.count()
        assert sc.block_manager_master.cached_partitions_of(rdd.rdd_id) == \
            set(range(rdd.num_partitions))
        admission = sc.cache_manager.admission
        assert (admission.accepted, admission.rejected) == \
            (rdd.num_partitions, 0)

    def test_quota_refusal_leaves_admission_counters(self):
        sc = make_context()
        quotas = TenantCacheQuotas(sc.block_manager_master)
        sc.cache_manager.quotas = quotas
        rdd = dataset(sc).cache()
        quotas.own(rdd.rdd_id, "a")
        quotas.set_quota("a", 1.0)  # no block ever fits
        rdd.count()
        assert sc.block_manager_master.cached_partitions_of(rdd.rdd_id) == set()
        assert quotas.quota_rejections == rdd.num_partitions
        admission = sc.cache_manager.admission
        assert (admission.accepted, admission.rejected) == (0, 0)


class TestRecomputeCostEstimate:
    def test_sums_narrow_chain_delays(self):
        sc = make_context()
        source = dataset(sc, payload_bytes=100_000, read_cost="network")
        mapped = source.map(lambda kv: kv).cache()
        mapped.count()
        stats = sc.rdd_stats
        expected = (stats(mapped.rdd_id).max_partition_delay
                    + stats(source.rdd_id).max_partition_delay)
        estimate = sc.cache_manager.estimate_recompute_cost(mapped.rdd_id)
        assert estimate == pytest.approx(expected)
        assert estimate > 0

    def test_stops_at_cached_ancestor(self):
        sc = make_context()
        source = dataset(sc, payload_bytes=100_000, read_cost="network").cache()
        mapped = source.map(lambda kv: kv).cache()
        mapped.count()
        estimate = sc.cache_manager.estimate_recompute_cost(mapped.rdd_id)
        assert estimate == pytest.approx(
            sc.rdd_stats(mapped.rdd_id).max_partition_delay)

    def test_unobserved_rdd_estimates_zero(self):
        sc = make_context()
        rdd = dataset(sc)
        assert sc.cache_manager.estimate_recompute_cost(rdd.rdd_id) == 0.0


class TestAutoUnpersist:
    """Auto-unpersist is deleted: an RDD stays cached whether or not its
    declared uses drained; only eviction or ``unpersist()`` drop it."""

    def test_undeclared_rdd_survives(self):
        sc = make_context()
        rdd = dataset(sc).cache()
        for _ in range(3):
            rdd.count()
        assert sc.block_manager_master.cached_partitions_of(rdd.rdd_id) == \
            set(range(rdd.num_partitions))

    def test_disabled_by_default(self):
        sc = make_context(cache_policy="lrc")
        rdd = dataset(sc).cache()
        sc.cache_manager.expect(rdd, uses=2)
        rdd.count()  # materializes + first declared use
        rdd.count()  # last declared use: drained, blocks stay
        assert sc.cache_manager.tracker.ref_count(rdd.rdd_id) == 0
        assert rdd.cached is True
        assert sc.block_manager_master.cached_partitions_of(rdd.rdd_id) == \
            set(range(rdd.num_partitions))


class TestMetricsCacheStats:
    def test_hits_misses_and_recompute_accounted(self):
        sc = make_context()
        rdd = dataset(sc).cache()
        rdd.count()  # all misses (first materialization)
        rdd.count()  # all hits
        stats = sc.metrics.cache_stats()
        assert stats["misses"] == rdd.num_partitions
        assert stats["hits"] == rdd.num_partitions
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["recomputed_partitions"] == rdd.num_partitions
        assert stats["recompute_time"] > 0
        assert stats["evictions"] == 0

    def test_capacity_evictions_counted(self):
        # ~2 kB of storage per worker: a 4-partition cached dataset of
        # ~1 kB partitions cannot fully fit and must evict.
        sc = StarkContext(num_workers=1, cores_per_worker=2,
                          memory_per_worker=4000, config=StarkConfig())
        rdd = dataset(sc, payload_bytes=100).cache()
        rdd.count()
        assert sc.metrics.cache_stats()["evictions"] > 0
