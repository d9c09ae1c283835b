"""Cluster-wide cache broker: global value ranking, the eviction /
migration memory market, cross-job lineage-prefix sharing and its pins,
quota interplay, ledger accounting, and the hottest-first drain
order."""

import math

import pytest

from repro import obs
from repro.cache.policy import ScoredPolicy, value_score
from repro.cluster.cost_model import SimStr
from repro.engine.block_manager import Block
from repro.engine.context import StarkConfig, StarkContext
from repro.service.quotas import TenantCacheQuotas


def make_context(num_workers=2, memory_per_worker=1e9, **config_kwargs):
    config_kwargs.setdefault("cache_broker", True)
    return StarkContext(num_workers=num_workers, cores_per_worker=2,
                        memory_per_worker=memory_per_worker,
                        config=StarkConfig(**config_kwargs))


def dataset(sc, payload_bytes=1000, partitions=4, read_cost="disk",
            name="d", records=4):
    payload = SimStr("x" * 8, sim_size=payload_bytes)

    def generate(pid):
        return [(pid * 10 + i, payload) for i in range(records)]

    return sc.generated(generate, partitions, read_cost=read_cost, name=name)


def ledger_matches_stores(sc):
    """Broker-accounted bytes must equal the stores' resident bytes
    exactly (both sides ``math.fsum`` — the `stark trace` reconciliation
    row)."""
    broker = sc.cache_broker
    master = sc.block_manager_master
    resident = math.fsum(
        store.peek(bid).size_bytes
        for wid in sorted(master.stores)
        for store in [master.stores[wid]]
        for bid in sorted(store.block_ids()))
    return broker.accounted_bytes() == resident


class TestValueScore:
    def test_cost_and_refs_raise_value_size_lowers_it(self):
        base = value_score(2.0, 1, 100.0)
        assert value_score(4.0, 1, 100.0) > base
        assert value_score(2.0, 3, 100.0) > base
        assert value_score(2.0, 1, 200.0) < base

    def test_degenerate_size_does_not_divide_by_zero(self):
        assert value_score(1.0, 0, 0.0) == value_score(1.0, 0, 1.0)


class TestLedgerSync:
    def test_every_store_runs_the_brokers_cost_aware_policy(self):
        # ``cache_policy`` is not consulted under the broker.
        sc = make_context(cache_policy="lru")
        broker = sc.cache_broker
        for wid, store in sc.block_manager_master.stores.items():
            assert isinstance(store.policy, ScoredPolicy)
            assert store.policy is broker.policy_for(wid)
            assert store.policy.name == "cost"

    def test_reregistering_a_worker_keeps_its_policy(self):
        sc = make_context()
        dataset(sc).cache().count()
        store = sc.block_manager_master.stores[0]
        policy, resident = store.policy, len(store)
        assert resident > 0
        sc.register_worker(0)  # idempotent: the store survived
        assert sc.block_manager_master.stores[0].policy is policy
        assert sc.cache_broker.policy_for(0) is policy
        assert sc.cache_broker.resident_count(0) == resident

    def test_ledger_tracks_inserts_and_removals(self):
        sc = make_context()
        rdd = dataset(sc).cache()
        rdd.count()
        master = sc.block_manager_master
        for wid, store in master.stores.items():
            assert sc.cache_broker.resident_count(wid) == len(store)
        assert sc.cache_broker.accounted_bytes() > 0
        assert ledger_matches_stores(sc)
        rdd.unpersist()
        assert sc.cache_broker.accounted_bytes() == 0.0
        assert ledger_matches_stores(sc)

    def test_block_value_uses_cost_refs_and_size(self):
        sc = make_context()
        rdd = dataset(sc, read_cost="network", name="hot").cache()
        rdd.count()
        broker = sc.cache_broker
        wid = min(w for w in broker.master.stores
                  if broker.resident_count(w))
        bid = sorted(broker.master.stores[wid].block_ids())[0]
        cost = sc.cache_manager.estimate_recompute_cost(rdd.rdd_id)
        size = broker.master.stores[wid].peek(bid).size_bytes
        assert cost > 0
        assert broker.block_value(wid, bid) == value_score(
            cost, broker.cross_job_refcount(bid), size)
        # A declared future use raises the cross-job refcount and value.
        before = broker.block_value(wid, bid)
        sc.cache_manager.expect(rdd, 2)
        assert broker.cross_job_refcount(bid) >= 2
        assert broker.block_value(wid, bid) > before

    def test_top_blocks_ranked_highest_first(self):
        sc = make_context()
        dataset(sc, read_cost="network", name="hot").cache().count()
        dataset(sc, read_cost="none", name="cold").cache().count()
        top = sc.cache_broker.top_blocks(100)
        values = [v for v, _, _ in top]
        assert values == sorted(values, reverse=True)
        assert len(top) == sum(
            len(s) for s in sc.block_manager_master.stores.values())


def market_run(sc):
    """The determinism suite's broker workload: two structurally
    identical cached pipelines (separate jobs) plus cached filler that
    overflows the small stores and triggers the market."""
    def source(pid):
        return [(pid * 100 + i, i % 17) for i in range(200)]

    def pipeline():
        return (sc.generated(source, 6, read_cost="network", name="scan")
                .map(lambda kv: (kv[0], kv[1] + 1))
                .cache())

    first = pipeline()
    first.count()
    second = pipeline()
    second.count()
    for r in range(4):
        data = [(i, i * r) for i in range(800)]
        sc.parallelize(data, 3, name=f"filler{r}").cache().count()
    second.count()
    return first, second


class TestGlobalEvictionMarket:
    def test_market_evicts_remote_and_migrates_local_victim(self):
        sc = make_context(num_workers=3, memory_per_worker=2.5e5)
        collector = obs.EventCollector()
        sc.event_bus.subscribe(collector)
        market_run(sc)
        broker = sc.cache_broker

        evicted = [e for e in collector.events
                   if isinstance(e, obs.BrokerEvicted)]
        migrated = [e for e in collector.events
                    if isinstance(e, obs.BrokerMigrated)]
        assert broker.broker_evictions == len(evicted) > 0
        assert broker.broker_migrations == len(migrated) > 0
        # Every broker eviction is cluster-wide: the victim store is not
        # the store that asked for relief.
        assert all(e.worker_id != e.requested_by for e in evicted)
        # Store-side removals carry the "broker" reason for the trace.
        broker_reason = [e for e in collector.events
                         if isinstance(e, obs.BlockEvicted)
                         and e.reason == "broker"]
        assert len(broker_reason) == len(evicted)
        # The market only trades up: each remote victim was strictly
        # cheaper than the local victim migrated into its slot.
        for evict, migrate in zip(evicted, migrated):
            assert evict.value < migrate.value
        # Migrations land where the eviction freed space.
        for evict, migrate in zip(evicted, migrated):
            assert migrate.dst_worker == evict.worker_id
            assert migrate.src_worker == evict.requested_by

    def test_ledger_reconciles_after_market_activity(self):
        sc = make_context(num_workers=3, memory_per_worker=2.5e5)
        market_run(sc)
        assert sc.cache_broker.broker_evictions > 0
        assert ledger_matches_stores(sc)
        for wid, store in sc.block_manager_master.stores.items():
            assert sc.cache_broker.resident_count(wid) == len(store)


class TestSharedClock:
    """Recency must be comparable *across* stores: every store's policy
    draws ``seq``/``last_access`` from the broker's one clock."""

    @pytest.mark.parametrize("older, newer", [(1, 2), (2, 1)])
    def test_market_takes_globally_least_recent_of_equal_values(
            self, older, newer):
        sc = make_context(num_workers=3)
        master = sc.block_manager_master
        half = master.stores[0].capacity_bytes / 2
        cold = dataset(sc, name="cold")  # never materialised: value 0
        hot = dataset(sc, name="hot")
        sc.rdd_stats(hot.rdd_id).record_delay(1.0)

        def put(wid, rdd, pid):
            master.put(wid, Block((rdd.rdd_id, pid), ["r"], half))

        # The cluster's least-recently-accessed block lives on a store
        # whose own event count is already *ahead* of the other store's:
        # per-store counters would rank it the more recent of the two.
        put(older, cold, 0)
        for _ in range(3):
            assert master.get_local(older, (cold.rdd_id, 0)) is not None
        put(newer, cold, 1)
        broker = sc.cache_broker
        assert (broker.block_value(older, (cold.rdd_id, 0))
                == broker.block_value(newer, (cold.rdd_id, 1)) == 0.0)

        removed = []
        master.add_block_event_listener(
            lambda wid, bid, reason: removed.append((wid, bid, reason)))
        for pid in range(3):  # the third insert overflows worker 0
            put(0, hot, pid)
        assert removed == [(older, (cold.rdd_id, 0), "broker"),
                           (0, (hot.rdd_id, 0), "migrated")]
        assert master.locations((hot.rdd_id, 0)) == {older}
        assert master.locations((cold.rdd_id, 1)) == {newer}
        assert (broker.broker_evictions, broker.broker_migrations) == (1, 1)
        assert ledger_matches_stores(sc)


class TestPrefixSharing:
    def make_pipeline(self, sc, constant=1):
        def source(pid):
            return [(pid * 10 + i, i) for i in range(20)]

        return (sc.generated(source, 4, read_cost="network", name="scan")
                .map(lambda kv: (kv[0], kv[1] + constant))
                .cache())

    def test_identical_pipelines_share_cached_subgraph(self):
        sc = make_context()
        first = self.make_pipeline(sc)
        expected = first.collect()
        broker = sc.cache_broker
        assert broker.prefix_hits == 0

        second = self.make_pipeline(sc)
        assert second.rdd_id != first.rdd_id
        got = second.collect()
        assert got == expected  # served result is the provider's data
        assert broker.prefix_hits >= second.num_partitions
        assert broker.equivalent_for(second.rdd_id) == first.rdd_id
        # Sharing is symmetric only through the registry: the provider
        # itself never matches its own prefix.
        assert broker.equivalent_for(first.rdd_id) in (None, second.rdd_id)

    def test_different_closure_constants_never_match(self):
        sc = make_context()
        first = self.make_pipeline(sc, constant=1)
        first.collect()
        other = self.make_pipeline(sc, constant=2)
        got = other.collect()
        assert sc.cache_broker.equivalent_for(other.rdd_id) is None
        assert sc.cache_broker.prefix_hits == 0
        assert got != first.collect()

    def test_consumer_pins_provider_while_it_runs(self, monkeypatch):
        sc = make_context()
        provider = self.make_pipeline(sc)
        provider.count()
        fallen = []
        monkeypatch.setattr(sc.cache_manager, "announce_fall", fallen.append)

        # A job with an identical lineage prefix pins the provider for
        # its lifetime: one more cross-job reference on its blocks.
        consumer = self.make_pipeline(sc)
        sc.cache_manager.on_job_submit(999, consumer, [])
        assert sc.cache_broker.pin_count(provider.rdd_id) == 1
        block = (provider.rdd_id, 0)
        assert sc.cache_broker.cross_job_refcount(block) == 1

        # Released at the consumer's completion: the provider's stores
        # are told its score fell, and its blocks stay resident.
        sc.cache_manager.on_job_complete(999)
        assert sc.cache_broker.pin_count(provider.rdd_id) == 0
        assert sc.cache_broker.cross_job_refcount(block) == 0
        assert fallen == [provider.rdd_id]
        assert sc.block_manager_master.cached_partitions_of(
            provider.rdd_id) == set(range(provider.num_partitions))

    def test_aborted_consumer_releases_its_pin(self):
        sc = make_context(max_task_failures=1)
        provider = self.make_pipeline(sc)
        provider.count()
        sc.cache_manager.expect(provider, 1)
        sc.config.task_failure_prob = 1.0
        consumer = self.make_pipeline(sc).map(lambda kv: kv)
        with pytest.raises(RuntimeError, match="aborting job"):
            consumer.count()
        assert sc.cache_broker.pin_count(provider.rdd_id) == 0
        # Only the still-owed declared use remains.
        assert sc.cache_broker.cross_job_refcount((provider.rdd_id, 0)) == 1

    def test_dead_provider_counts_a_prefix_miss(self):
        sc = make_context()
        first = self.make_pipeline(sc)
        expected = first.collect()
        first.unpersist()
        second = self.make_pipeline(sc)
        got = second.collect()
        assert got == expected  # recomputed from lineage, not served
        assert sc.cache_broker.prefix_hits == 0
        assert sc.cache_broker.prefix_misses > 0


class TestQuotaBrokerInterplay:
    """S3: a tenant at quota displaces its OWN lowest-value block
    cluster-wide — never another tenant's — including after a migration
    moved that block to a different worker."""

    def setup_tenants(self, sc):
        quotas = TenantCacheQuotas(sc.block_manager_master)
        sc.cache_manager.quotas = quotas
        # The manager wires quota displacement to the broker ranking.
        assert quotas.value_fn == sc.cache_broker.block_value
        exp = dataset(sc, payload_bytes=50_000, partitions=2,
                      read_cost="network", name="t1-exp").cache()
        cheap = dataset(sc, payload_bytes=50_000, partitions=2,
                        read_cost="none", name="t1-cheap").cache()
        other = dataset(sc, payload_bytes=50_000, partitions=2,
                        read_cost="network", name="t2-hot").cache()
        quotas.own(exp.rdd_id, "t1")
        quotas.own(cheap.rdd_id, "t1")
        quotas.own(other.rdd_id, "t2")
        exp.count()
        cheap.count()
        other.count()
        return quotas, exp, cheap, other

    def partitions_of(self, sc, rdd):
        return sc.block_manager_master.cached_partitions_of(rdd.rdd_id)

    def test_displacement_takes_own_lowest_value_cluster_wide(self):
        sc = make_context()
        quotas, exp, cheap, other = self.setup_tenants(sc)
        master = sc.block_manager_master
        assert len(self.partitions_of(sc, exp)) == 2
        assert len(self.partitions_of(sc, cheap)) == 2

        # t1 is exactly at quota; admitting one more block must displace
        # one of t1's own blocks — the broker ranks cheap's (recompute
        # near zero) below exp's (network re-read), wherever it lives.
        quotas.set_quota("t1", quotas.usage("t1"))
        pid = sorted(self.partitions_of(sc, cheap))[0]
        block_size = next(
            master.stores[w].peek((cheap.rdd_id, pid)).size_bytes
            for w in sorted(master.locations((cheap.rdd_id, pid))))
        newcomer = dataset(sc, payload_bytes=50_000, partitions=1,
                           name="t1-new")
        quotas.own(newcomer.rdd_id, "t1")
        assert quotas.admit(newcomer.rdd_id, block_size)

        assert len(self.partitions_of(sc, cheap)) == 1  # own lowest value
        assert len(self.partitions_of(sc, exp)) == 2    # own hot: kept
        assert len(self.partitions_of(sc, other)) == 2  # never t2's
        assert ledger_matches_stores(sc)

    def test_displacement_follows_a_migrated_block(self):
        sc = make_context()
        quotas, exp, cheap, other = self.setup_tenants(sc)
        master = sc.block_manager_master
        quotas.set_quota("t1", quotas.usage("t1"))
        newcomer = dataset(sc, payload_bytes=50_000, partitions=1,
                           name="t1-new")
        quotas.own(newcomer.rdd_id, "t1")
        pid = sorted(self.partitions_of(sc, cheap))[0]
        size = next(
            master.stores[w].peek((cheap.rdd_id, pid)).size_bytes
            for w in sorted(master.locations((cheap.rdd_id, pid))))
        assert quotas.admit(newcomer.rdd_id, size)
        assert len(self.partitions_of(sc, cheap)) == 1

        # Migrate t1's one surviving cheap block to the other worker,
        # then push t1 over quota again: the displacement must find the
        # block at its NEW location and the accounting must have
        # followed it (usage unchanged by the move).
        last = (cheap.rdd_id, sorted(self.partitions_of(sc, cheap))[0])
        src = sorted(master.locations(last))[0]
        dst = next(w for w in sorted(master.stores) if w != src)
        usage_before = quotas.usage("t1")
        assert master.migrate_block(last, src=src, dst=dst)
        assert quotas.usage("t1") == usage_before
        assert sorted(master.locations(last)) == [dst]

        quotas.set_quota("t1", quotas.usage("t1"))  # back at the limit
        assert quotas.admit(newcomer.rdd_id, size)
        assert self.partitions_of(sc, cheap) == set()   # migrated victim
        assert len(self.partitions_of(sc, exp)) == 2
        assert len(self.partitions_of(sc, other)) == 2  # still untouched
        assert ledger_matches_stores(sc)


class TestDrainOrder:
    """Value ranks a worker's blocks for a drain: hottest first, and a
    block migrated off the worker keeps the ledger exact."""

    def sculpt(self, sc):
        """w_cold ends with only near-zero-value blocks, w_hot keeps a
        network-sourced block: unequal values, deterministic."""
        hot = dataset(sc, payload_bytes=20_000, partitions=2,
                      read_cost="network", name="hot").cache()
        cheap = dataset(sc, payload_bytes=100_000, partitions=4,
                        read_cost="none", name="cheap").cache()
        hot.count()
        cheap.count()
        master = sc.block_manager_master
        hot_workers = sorted(
            w for pid in master.cached_partitions_of(hot.rdd_id)
            for w in master.locations((hot.rdd_id, pid)))
        w_hot = hot_workers[0]
        w_cold = next(w for w in sorted(master.stores) if w != w_hot)
        # Strip hot blocks from the cold worker so the values diverge.
        for pid in sorted(master.cached_partitions_of(hot.rdd_id)):
            bid = (hot.rdd_id, pid)
            if w_cold in master.locations(bid):
                master.remove_block(bid, w_cold)
        return hot, cheap, w_hot, w_cold

    def test_hot_workers_blocks_outrank_the_cold_ones(self):
        sc = make_context()
        hot, cheap, w_hot, w_cold = self.sculpt(sc)
        broker = sc.cache_broker
        master = sc.block_manager_master
        cold = [broker.block_value(w_cold, bid)
                for bid in master.stores[w_cold].block_ids()]
        assert cold, "cold worker should hold blocks"
        # The cold worker may well hold MORE bytes; the network-sourced
        # block still outranks every block on it.
        value, wid, bid = broker.top_blocks(1)[0]
        assert (wid, bid[0]) == (w_hot, hot.rdd_id)
        assert max(cold) < value
        assert value == broker.block_value(w_hot, bid)

    def test_migration_order_is_hottest_first(self):
        sc = make_context()
        hot, cheap, w_hot, w_cold = self.sculpt(sc)
        broker = sc.cache_broker
        order = broker.migration_order(w_hot)
        assert order, "hot worker should hold blocks"
        values = [broker.block_value(w_hot, bid) for bid in order]
        assert values == sorted(values, reverse=True)
        assert order[0][0] == hot.rdd_id

    def test_draining_in_order_saves_the_hot_block(self):
        sc = make_context()
        hot, cheap, w_hot, w_cold = self.sculpt(sc)
        master = sc.block_manager_master
        hot_blocks = [bid for bid in sc.cache_broker.migration_order(w_hot)
                      if bid[0] == hot.rdd_id]
        assert hot_blocks
        for bid in hot_blocks:
            assert master.migrate_block(bid, w_hot, w_cold)
        # The network-sourced blocks moved into the other store, and
        # the ledger followed them exactly.
        assert master.cached_partitions_of(hot.rdd_id) \
            == set(range(hot.num_partitions))
        for pid in master.cached_partitions_of(hot.rdd_id):
            assert master.locations((hot.rdd_id, pid)) == {w_cold}
        assert ledger_matches_stores(sc)
