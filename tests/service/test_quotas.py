"""Per-tenant cache quotas: accounting, admission, victim preference.

The isolation contract: enforcing tenant A's quota only ever displaces
tenant A's blocks — other tenants' cached data is untouched by A's
admission, and only *over-quota* tenants are nominated to the capacity
evictor ahead of the store's base policy.
"""

import pytest

from repro import StarkContext
from repro.service import TenantCacheQuotas


def make_sc(memory_per_worker=1e9):
    return StarkContext(num_workers=2, cores_per_worker=2,
                        memory_per_worker=memory_per_worker)


def cached_pipeline(sc, source, num_partitions=4, records=200):
    def gen(pid, source=source):
        return [(pid * 1000 + i, (i * 31 + source) % 997)
                for i in range(records)]

    rdd = sc.generated(gen, num_partitions, read_cost="disk",
                       name=f"src{source}").cache()
    return rdd


def attach(sc, default_quota_mb=0.0):
    quotas = TenantCacheQuotas(sc.block_manager_master,
                               default_quota_bytes=default_quota_mb * 1e6)
    sc.cache_manager.quotas = quotas
    return quotas


def block_ids(sc, rdd_id):
    master = sc.block_manager_master
    return [(rdd_id, p)
            for p in sorted(master.cached_partitions_of(rdd_id))]


class TestAccounting:
    def test_usage_tracks_inserts_and_removals(self):
        sc = make_sc()
        quotas = attach(sc)
        rdd = cached_pipeline(sc, 0)
        quotas.own(rdd.rdd_id, "a")
        sc.run_job(rdd, len)
        assert quotas.usage("a") == pytest.approx(sc.cached_bytes())
        assert quotas.usage("a") > 0
        sc.block_manager_master.remove_rdd(rdd.rdd_id)
        assert quotas.usage("a") == 0

    def test_unowned_rdds_exempt(self):
        sc = make_sc()
        quotas = attach(sc, default_quota_mb=0.001)  # 1 kB quota
        rdd = cached_pipeline(sc, 0)
        sc.run_job(rdd, len)  # never owned: quota does not apply
        assert sc.cached_bytes() > 1e3
        assert quotas.usage("a") == 0
        assert quotas.quota_rejections == 0

    def test_first_owner_wins(self):
        sc = make_sc()
        quotas = attach(sc)
        quotas.own(7, "a")
        quotas.own(7, "b")
        assert quotas.owner(7) == "a"

    def test_validation(self):
        sc = make_sc()
        with pytest.raises(ValueError):
            TenantCacheQuotas(sc.block_manager_master,
                              default_quota_bytes=-1.0)
        quotas = attach(sc)
        with pytest.raises(ValueError):
            quotas.set_quota("a", -5.0)


class TestAdmission:
    def test_quota_zero_is_unlimited(self):
        sc = make_sc()
        quotas = attach(sc, default_quota_mb=0.0)
        rdd = cached_pipeline(sc, 0)
        quotas.own(rdd.rdd_id, "a")
        sc.run_job(rdd, len)
        assert quotas.quota_evictions == 0
        assert quotas.quota_rejections == 0
        assert len(block_ids(sc, rdd.rdd_id)) == 4

    def test_over_quota_evicts_own_oldest_blocks(self):
        sc = make_sc()
        quotas = attach(sc)
        rdd = cached_pipeline(sc, 0)
        quotas.own(rdd.rdd_id, "a")
        sc.run_job(rdd, len)
        per_block = quotas.usage("a") / 4
        # Quota fits two blocks: caching a second dataset must displace
        # a's own oldest blocks, never reject outright.
        quotas.set_quota("a", per_block * 2.5)
        rdd2 = cached_pipeline(sc, 1)
        quotas.own(rdd2.rdd_id, "a")
        sc.run_job(rdd2, len)
        assert quotas.quota_evictions > 0
        assert quotas.usage("a") <= per_block * 2.5
        # Newest blocks (rdd2's) are resident; rdd1 was displaced.
        assert len(block_ids(sc, rdd2.rdd_id)) > 0
        assert len(block_ids(sc, rdd.rdd_id)) < 4

    def test_block_larger_than_quota_rejected(self):
        sc = make_sc()
        quotas = attach(sc)
        rdd = cached_pipeline(sc, 0)
        quotas.own(rdd.rdd_id, "a")
        quotas.set_quota("a", 10.0)  # 10 bytes: nothing fits
        sc.run_job(rdd, len)
        assert quotas.quota_rejections > 0
        assert block_ids(sc, rdd.rdd_id) == []
        assert quotas.usage("a") == 0

    def test_enforcement_never_touches_other_tenants(self):
        """The isolation contract, asserted block by block."""
        sc = make_sc()
        quotas = attach(sc)
        victim_candidate = cached_pipeline(sc, 0)
        quotas.own(victim_candidate.rdd_id, "b")
        sc.run_job(victim_candidate, len)
        b_blocks = set(block_ids(sc, victim_candidate.rdd_id))
        b_usage = quotas.usage("b")

        rdd1 = cached_pipeline(sc, 1)
        quotas.own(rdd1.rdd_id, "a")
        sc.run_job(rdd1, len)
        quotas.set_quota("a", quotas.usage("a") * 0.6)
        rdd2 = cached_pipeline(sc, 2)
        quotas.own(rdd2.rdd_id, "a")
        sc.run_job(rdd2, len)  # forces intra-tenant evictions for a

        assert quotas.quota_evictions > 0
        assert set(block_ids(sc, victim_candidate.rdd_id)) == b_blocks
        assert quotas.usage("b") == b_usage


class TestPreferredVictim:
    def test_nominates_over_quota_tenant_only(self):
        sc = make_sc()
        quotas = attach(sc)
        rdd_a = cached_pipeline(sc, 0)
        rdd_b = cached_pipeline(sc, 1)
        quotas.own(rdd_a.rdd_id, "a")
        quotas.own(rdd_b.rdd_id, "b")
        sc.run_job(rdd_a, len)
        sc.run_job(rdd_b, len)
        stores = sc.block_manager_master.stores
        # Nobody over quota: defer to the base policy.
        assert all(quotas.preferred_victim(wid) is None for wid in stores)
        # Push b over quota: on every worker the nominee is the oldest
        # of b's blocks resident *there* (the quota manager walks that
        # store itself) — a's never.
        quotas.set_quota("b", 1.0)
        nominated = 0
        for wid, store in stores.items():
            b_resident = [bid for bid in store.block_ids()
                          if bid[0] == rdd_b.rdd_id]
            victim = quotas.preferred_victim(wid)
            assert victim == (b_resident[0] if b_resident else None)
            nominated += victim is not None
        assert nominated > 0

    def test_capacity_pressure_evicts_over_quota_tenant_first(self):
        """End to end through the block store's eviction path: a tiny
        store under pressure picks the over-quota tenant's blocks while
        the compliant tenant's survive."""
        sc = make_sc(memory_per_worker=1e9)
        quotas = attach(sc)
        compliant = cached_pipeline(sc, 0, records=100)
        quotas.own(compliant.rdd_id, "a")
        sc.run_job(compliant, len)
        a_blocks = set(block_ids(sc, compliant.rdd_id))
        assert a_blocks

        # Shrink every store so the next dataset overflows capacity.
        used = sc.cached_bytes() / 2  # per worker, roughly
        for store in sc.block_manager_master.stores.values():
            store.capacity_bytes = used + 40_000
        hog = cached_pipeline(sc, 1, records=100)
        quotas.own(hog.rdd_id, "b")
        quotas.set_quota("b", 30_000)  # b is instantly over quota
        sc.run_job(hog, len)
        sc.run_job(hog, len)
        # Compliant tenant's blocks all survived the pressure.
        assert set(block_ids(sc, compliant.rdd_id)) == a_blocks
