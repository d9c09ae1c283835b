"""One resident block, one record per concern — kept in step under any
trace of store mutations.

The store owns the bytes, the policy entries the recency + ranking, the
tenant quotas the per-tenant usage, and every departure is reported on
the block master's one removal channel.  This drives random
put / get / remove / migrate / lose / re-register traces over three
stores — broker on and off, with and without quotas — and checks after
every step that those records agree with the stores.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import StarkConfig, StarkContext
from repro.engine.block_manager import Block
from repro.service import TenantCacheQuotas

WORKERS = st.integers(0, 2)
RDDS = st.integers(0, 2)
PIDS = st.integers(0, 3)
#: Whole bytes, so float sums are exact whatever the order; the store
#: capacity is 1000, so the top of the range is refused outright.
SIZES = st.integers(1, 1300)

OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), WORKERS, RDDS, PIDS, SIZES, st.booleans()),
    st.tuples(st.just("get"), WORKERS, RDDS, PIDS),
    st.tuples(st.just("remove"), st.none() | WORKERS, RDDS, PIDS),
    st.tuples(st.just("migrate"), WORKERS, WORKERS, RDDS, PIDS),
    st.tuples(st.just("lose"), WORKERS),
    st.tuples(st.just("reregister"), WORKERS, st.booleans()),
), max_size=40)

#: Removal reasons each operation may produce.
REASONS = {
    "put": {"capacity", "quota", "broker", "migrated"},
    "get": set(),
    "remove": {"explicit"},
    "migrate": {"migrated", "capacity", "broker"},
    "lose": {"worker_lost"},
    "reregister": {"worker_lost"},
}


class Harness:
    def __init__(self, mode, with_quotas):
        broker = mode == "broker"
        self.sc = sc = StarkContext(
            num_workers=3, cores_per_worker=1, memory_per_worker=1000 / 0.6,
            config=StarkConfig(cache_broker=broker,
                               cache_policy="lru" if broker else mode))
        self.master = master = sc.block_manager_master
        assert all(s.capacity_bytes == 1000 for s in master.stores.values())
        self.rdds = [sc.generated(lambda pid: [pid], 4, name=f"r{i}")
                     for i in range(3)]
        for rdd, delay in zip(self.rdds, (0.0, 0.5, 2.0)):
            sc.rdd_stats(rdd.rdd_id).record_delay(delay)
        self.quotas = None
        if with_quotas:
            self.quotas = quotas = TenantCacheQuotas(master)
            sc.cache_manager.quotas = quotas
            quotas.own(self.rdds[0].rdd_id, "a")
            quotas.own(self.rdds[1].rdd_id, "b")  # rdds[2] stays unowned
            quotas.set_quota("a", 900.0)
            quotas.set_quota("b", 1500.0)
        #: (worker_id, block_id) -> size, rebuilt from the two listener
        #: channels alone.
        self.heard = {}
        self.removals = []
        master.add_insert_listener(self._on_insert)
        master.add_block_event_listener(self._on_removed)

    def _on_insert(self, worker_id, block):
        self.heard[(worker_id, block.block_id)] = block.size_bytes

    def _on_removed(self, worker_id, block_id, reason):
        # Exactly once: a removal is only ever reported for a block the
        # channels say is resident, and it is resident no more.
        assert (worker_id, block_id) in self.heard, (worker_id, block_id)
        assert block_id not in self.master.stores[worker_id]
        del self.heard[(worker_id, block_id)]
        self.removals.append(reason)

    def bid(self, rdd_index, pid):
        return (self.rdds[rdd_index].rdd_id, pid)

    def apply(self, op):
        sc, master = self.sc, self.master
        kind = op[0]
        if kind == "put":
            _, wid, rdd, pid, size, gated = op
            bid = self.bid(rdd, pid)
            if not gated or sc.cache_manager.should_admit(bid[0], size):
                evicted = master.put(wid, Block(bid, ["r"], float(size)))
                assert (evicted is None) == (size > 1000)
                return len(evicted or ())
        elif kind == "get":
            _, wid, rdd, pid = op
            block = master.get_local(wid, self.bid(rdd, pid))
            assert (block is not None) == master.is_cached_on(
                wid, self.bid(rdd, pid))
        elif kind == "remove":
            _, wid, rdd, pid = op
            master.remove_block(self.bid(rdd, pid), wid)
        elif kind == "migrate":
            _, src, dst, rdd, pid = op
            master.migrate_block(self.bid(rdd, pid), src, dst)
        elif kind == "lose":
            master.lose_worker(op[1])
        else:
            _, wid, lose_first = op
            if lose_first:
                master.lose_worker(wid)
            sc.register_worker(wid)
        return None

    def check(self, kind, capacity_victims, before):
        sc, master = self.sc, self.master
        resident = {(wid, bid): store.peek(bid).size_bytes
                    for wid, store in master.stores.items()
                    for bid in store.block_ids()}
        # The removal channel (plus the insert channel) heard exactly
        # what the stores hold: no departure missed, none doubled.
        assert self.heard == resident
        assert set(self.removals) <= REASONS[kind], self.removals
        capacity = self.removals.count("capacity")
        if capacity_victims is not None:  # a put that reached the store
            assert capacity == capacity_victims
        assert sc.metrics.evictions == before["evictions"] + capacity
        broker = sc.cache_broker
        if broker is not None:
            assert (broker.broker_evictions - before["broker_evictions"]
                    == self.removals.count("broker"))
            if kind == "put":
                assert (broker.broker_migrations
                        - before["broker_migrations"]
                        == self.removals.count("migrated"))
            assert broker.accounted_bytes() == math.fsum(resident.values())
        else:
            assert "broker" not in self.removals
        for wid, store in master.stores.items():
            policy = store.policy
            assert len(policy) == len(store)
            # Same ids in the same (insertion) order, same sizes.
            assert list(policy.entries) == store.block_ids()
            assert all(entry.size_bytes == store.peek(bid).size_bytes
                       for bid, entry in policy.entries.items())
            if broker is not None:
                assert policy is broker.policy_for(wid)
            assert store.used_bytes == pytest.approx(math.fsum(
                store.peek(bid).size_bytes for bid in store.block_ids()))
        if self.quotas is not None:
            assert (self.quotas.quota_evictions - before["quota_evictions"]
                    == self.removals.count("quota"))
            for tenant, rdd in (("a", self.rdds[0]), ("b", self.rdds[1])):
                assert self.quotas.usage(tenant) == math.fsum(
                    size for (_, bid), size in resident.items()
                    if bid[0] == rdd.rdd_id)

    def counters(self):
        broker, quotas = self.sc.cache_broker, self.quotas
        return {
            "evictions": self.sc.metrics.evictions,
            "broker_evictions": broker.broker_evictions if broker else 0,
            "broker_migrations": broker.broker_migrations if broker else 0,
            "quota_evictions": quotas.quota_evictions if quotas else 0,
        }

    def step(self, op):
        """Apply one operation, check every record; return the removal
        reasons it caused, in order."""
        before = self.counters()
        self.removals.clear()
        capacity_victims = self.apply(op)
        self.check(op[0], capacity_victims, before)
        return list(self.removals)


@pytest.mark.parametrize("with_quotas", [False, True],
                         ids=["no-quotas", "quotas"])
@pytest.mark.parametrize("mode", ["broker", "cost", "lru"])
@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_every_record_of_a_block_follows_the_store(mode, with_quotas, ops):
    harness = Harness(mode, with_quotas)
    for op in ops:
        harness.step(op)


def test_pinned_trace_crosses_every_removal_path():
    """The property above is only worth its name if such traces reach
    the paths that move blocks behind the caller's back; pin one that
    crosses all of them, with the removals each step must report."""
    harness = Harness("broker", with_quotas=True)
    steps = [
        (("put", 1, 1, 0, 400, False), []),
        (("put", 2, 1, 1, 400, False), []),
        (("put", 0, 2, 0, 500, False), []),
        (("put", 0, 2, 1, 500, False), []),
        # Worker 0 overflows and its victim outranks worker 1's block:
        # the market evicts there and migrates the victim in.
        (("put", 0, 2, 2, 500, False), ["broker", "migrated"]),
        (("remove", None, 2, 1), ["explicit"]),
        (("lose", 0), ["worker_lost"]),
        (("put", 0, 0, 0, 600, True), []),
        # Oversized re-put of a resident id: refused, nothing moves.
        (("put", 0, 0, 0, 1200, False), []),
        # Tenant "a" (quota 900) displaces its own block to admit this.
        (("put", 0, 0, 1, 600, True), ["quota"]),
        (("put", 2, 1, 2, 600, False), []),
        (("put", 0, 1, 0, 400, False), []),
        (("put", 1, 1, 3, 200, False), []),  # tenant "b" now over 1500
        # Worker 0 overflows: b's block is nominated although a's
        # zero-value block ranks lower, and the market stands aside.
        (("put", 0, 2, 3, 300, False), ["capacity"]),
        # The destination's market evicts the migrating block at its
        # source and swaps a local victim there; the source drop is then
        # a no-op — still one report per departure.
        (("migrate", 0, 2, 0, 1), ["broker", "migrated"]),
        (("reregister", 1, True), ["worker_lost", "worker_lost"]),
        (("reregister", 2, False), []),
    ]
    for op, removals in steps:
        assert harness.step(op) == removals, op
    resident = {wid: store.block_ids()
                for wid, store in harness.master.stores.items()}
    r0, r1, r2 = (rdd.rdd_id for rdd in harness.rdds)
    assert resident == {0: [(r2, 3), (r1, 2)], 1: [],
                        2: [(r1, 1), (r0, 1)]}
