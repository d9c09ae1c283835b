"""Shared contract every eviction policy must honour, plus the
policy-specific orderings that distinguish them.

The contract (ISSUE acceptance): capacity is respected under any policy,
oversized blocks are refused, eviction callbacks fire for capacity
victims, and identical access traces evict identical sequences.
"""

import pytest
from hypothesis import given, strategies as st

from repro.cache.policy import POLICY_NAMES, make_policy
from repro.engine.block_manager import Block, BlockManagerMaster, BlockStore


class Oracles:
    """Mutable reference/cost tables standing in for the tracker."""

    def __init__(self):
        self.refs = {}
        self.costs = {}

    def ref_fn(self, block_id):
        return self.refs.get(block_id[0], 0)

    def cost_fn(self, rdd_id):
        return self.costs.get(rdd_id, 0.0)


def fresh_policy(name, oracles=None):
    oracles = oracles or Oracles()
    return make_policy(name, ref_fn=oracles.ref_fn, cost_fn=oracles.cost_fn)


def block(rdd_id, pid, size):
    return Block((rdd_id, pid), ["r"], float(size))


# ---------------------------------------------------------------------------
# The contract, parametrized over every policy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", POLICY_NAMES)
class TestPolicyContract:
    def test_capacity_respected(self, name):
        store = BlockStore(0, 100.0, policy=fresh_policy(name))
        for pid in range(10):
            store.put(block(1, pid, 30))
            assert store.used_bytes <= 100.0

    def test_oversized_block_refused(self, name):
        store = BlockStore(0, 100.0, policy=fresh_policy(name))
        store.put(block(1, 0, 60))
        assert store.put(block(2, 0, 150)) is None
        assert (2, 0) not in store
        assert (1, 0) in store  # nothing was evicted for a refused block

    def test_eviction_callbacks_fired(self, name):
        oracles = Oracles()
        master = BlockManagerMaster(
            [0], lambda wid: 100.0,
            policy_factory=lambda wid: fresh_policy(name, oracles),
        )
        events = []
        master.add_block_event_listener(
            lambda wid, bid, reason: reason == "capacity"
            and events.append((wid, bid)))
        for pid in range(4):
            master.put(0, block(1, pid, 40))
        master.remove_block((1, 3))  # not a capacity eviction
        assert len(events) == 2
        for wid, bid in events:
            assert wid == 0
            assert not master.is_cached_on(0, bid)

    def test_policy_mirror_tracks_membership(self, name):
        store = BlockStore(0, 100.0, policy=fresh_policy(name))
        for pid in range(5):
            store.put(block(1, pid, 40))
        assert len(store.policy) == len(store)
        store.remove((1, 4))
        assert len(store.policy) == len(store)
        store.clear()
        assert len(store.policy) == 0

    @given(ops=st.lists(
        st.tuples(st.sampled_from(["put", "get", "remove"]),
                  st.integers(0, 3), st.integers(0, 3),
                  st.floats(min_value=1, max_value=60)),
        max_size=60))
    def test_deterministic_given_identical_traces(self, name, ops):
        oracles = Oracles()
        oracles.refs = {0: 2, 1: 0, 2: 5, 3: 1}
        oracles.costs = {0: 0.5, 1: 0.0, 2: 4.0, 3: 0.1}

        def run():
            store = BlockStore(0, 100.0, policy=fresh_policy(name, oracles))
            evictions = []
            for op, rdd_id, pid, size in ops:
                if op == "put":
                    evicted = store.put(block(rdd_id, pid, size))
                    evictions.extend(b.block_id for b in evicted)
                elif op == "get":
                    store.get((rdd_id, pid))
                else:
                    store.remove((rdd_id, pid))
            return evictions, sorted(store.block_ids())

        assert run() == run()


# ---------------------------------------------------------------------------
# Orderings that tell the policies apart
# ---------------------------------------------------------------------------

class TestLRU:
    def test_access_promotes(self):
        store = BlockStore(0, 100.0, policy=make_policy("lru"))
        store.put(block(1, 0, 40))
        store.put(block(1, 1, 40))
        store.get((1, 0))
        evicted = store.put(block(1, 2, 40))
        assert [b.block_id for b in evicted] == [(1, 1)]


class TestFIFO:
    def test_access_does_not_promote(self):
        store = BlockStore(0, 100.0, policy=make_policy("fifo"))
        store.put(block(1, 0, 40))
        store.put(block(1, 1, 40))
        store.get((1, 0))  # unlike LRU this must not save block 0
        evicted = store.put(block(1, 2, 40))
        assert [b.block_id for b in evicted] == [(1, 0)]


class TestLRC:
    def test_zero_ref_evicted_before_recent(self):
        oracles = Oracles()
        oracles.refs = {1: 3, 2: 0}
        store = BlockStore(0, 100.0, policy=make_policy("lrc", oracles.ref_fn))
        store.put(block(1, 0, 40))  # referenced, LRU-cold
        store.put(block(2, 0, 40))  # dead, LRU-hot
        evicted = store.put(block(3, 0, 40))
        assert [b.block_id for b in evicted] == [(2, 0)]

    def test_ties_fall_back_to_lru(self):
        store = BlockStore(0, 100.0, policy=make_policy("lrc", lambda bid: 1))
        store.put(block(1, 0, 40))
        store.put(block(1, 1, 40))
        store.get((1, 0))
        evicted = store.put(block(1, 2, 40))
        assert [b.block_id for b in evicted] == [(1, 1)]

    def test_score_follows_live_ref_changes(self):
        oracles = Oracles()
        oracles.refs = {1: 0, 2: 0}
        store = BlockStore(0, 100.0, policy=make_policy("lrc", oracles.ref_fn))
        store.put(block(1, 0, 40))
        store.put(block(2, 0, 40))
        oracles.refs[1] = 7  # rdd 1 gains readers after insertion
        evicted = store.put(block(3, 0, 40))
        assert [b.block_id for b in evicted] == [(2, 0)]


class TestCostAware:
    def test_cheap_block_evicted_before_expensive(self):
        oracles = Oracles()
        oracles.costs = {1: 10.0, 2: 0.001}
        store = BlockStore(
            0, 100.0, policy=make_policy("cost", oracles.ref_fn, oracles.cost_fn))
        store.put(block(1, 0, 40))  # expensive, LRU-cold
        store.put(block(2, 0, 40))  # cheap, LRU-hot
        evicted = store.put(block(3, 0, 40))
        assert [b.block_id for b in evicted] == [(2, 0)]

    def test_size_normalizes_value(self):
        oracles = Oracles()
        oracles.costs = {1: 1.0, 2: 1.0}
        store = BlockStore(
            0, 100.0, policy=make_policy("cost", oracles.ref_fn, oracles.cost_fn))
        store.put(block(1, 0, 10))  # same cost in a tenth of the bytes
        store.put(block(2, 0, 80))
        evicted = store.put(block(3, 0, 40))
        assert [b.block_id for b in evicted] == [(2, 0)]

    def test_references_multiply_value(self):
        oracles = Oracles()
        oracles.costs = {1: 1.0, 2: 1.0}
        oracles.refs = {1: 9, 2: 0}
        store = BlockStore(
            0, 100.0, policy=make_policy("cost", oracles.ref_fn, oracles.cost_fn))
        store.put(block(1, 0, 40))
        store.put(block(2, 0, 40))
        evicted = store.put(block(3, 0, 40))
        assert [b.block_id for b in evicted] == [(2, 0)]


class TestFactory:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown cache policy"):
            make_policy("mru")

    def test_lrc_requires_ref_fn(self):
        with pytest.raises(ValueError, match="reference-count"):
            make_policy("lrc")

    def test_cost_requires_both_oracles(self):
        with pytest.raises(ValueError, match="reference and cost"):
            make_policy("cost", ref_fn=lambda bid: 0)

    def test_names_round_trip(self):
        for name in POLICY_NAMES:
            policy = fresh_policy(name)
            assert policy.name == name
