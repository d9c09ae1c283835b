"""``make_policy`` evicts exactly what the old per-policy classes evicted.

``reference_policies`` keeps ``LRUPolicy``, ``FIFOPolicy``,
``LRCPolicy``, ``CostAwarePolicy`` and the ``QuotaAwarePolicy`` wrapper
as they were before they became one ``ScoredPolicy``.  Random traces of
inserts (re-inserts included), accesses, removals, announced falls and
unannounced rises of the oracles, quota changes and evictions drive two
stores' worth of both, for every policy name: each store on its own
clock or on a shared one, with a quota nominee and without.  The victim
sequence and the resident counts must be identical.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policy import POLICY_NAMES, make_policy

from .reference_policies import (CostAwarePolicy, FIFOPolicy, LRCPolicy,
                                 LRUPolicy, QuotaAwarePolicy)


class Oracles:
    def __init__(self):
        self.refs = {rdd: 1 for rdd in range(4)}
        self.costs = {rdd: 1.0 for rdd in range(4)}

    def ref_fn(self, block_id):
        return self.refs[block_id[0]]

    def cost_fn(self, rdd_id):
        return self.costs[rdd_id]


class Quotas:
    """Stands in for ``TenantCacheQuotas``: nominates a worker's oldest
    resident block of an over-quota RDD."""

    def __init__(self, resident):
        self.resident = resident  # worker -> {block_id: None}, oldest first
        self.over = set()

    def preferred_victim(self, worker_id):
        return next((bid for bid in self.resident[worker_id]
                     if bid[0] in self.over), None)


def reference(name, oracles, clock):
    if name == "lru":
        return LRUPolicy()
    if name == "fifo":
        return FIFOPolicy()
    if name == "lrc":
        return LRCPolicy(oracles.ref_fn, clock=clock)
    return CostAwarePolicy(oracles.ref_fn, oracles.cost_fn, clock=clock)


WHICH = st.integers(0, 1)
RDDS = st.integers(0, 3)
BLOCK = st.tuples(WHICH, RDDS, st.integers(0, 4))
OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), BLOCK, st.sampled_from([10.0, 20.0, 40.0])),
    st.tuples(st.just("insert"), BLOCK, st.sampled_from([10.0, 20.0, 40.0])),
    st.tuples(st.just("access"), BLOCK),
    st.tuples(st.just("access"), BLOCK),
    st.tuples(st.just("remove"), BLOCK),
    st.tuples(st.just("evict"), WHICH),
    st.tuples(st.just("evict"), WHICH),
    st.tuples(st.sampled_from(["ref_fall", "ref_rise", "cost_fall",
                               "cost_rise", "quota"]), RDDS),
), min_size=10, max_size=120)


@pytest.mark.parametrize("quota", [False, True], ids=["no_quota", "quota"])
@pytest.mark.parametrize("shared", [False, True], ids=["own_clock", "shared_clock"])
@pytest.mark.parametrize("name", POLICY_NAMES)
@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_one_class_evicts_like_the_old_classes(name, shared, quota, ops):
    oracles = Oracles()
    resident = {0: {}, 1: {}}
    quotas = Quotas(resident)
    new_clock = itertools.count() if shared else None
    old_clock = itertools.count() if shared else None
    new, old = [], []
    for wid in range(2):
        policy = make_policy(name, oracles.ref_fn, oracles.cost_fn,
                             clock=new_clock)
        inner = reference(name, oracles, old_clock)
        if quota:
            policy.nominee_fn = lambda wid=wid: quotas.preferred_victim(wid)
            inner = QuotaAwarePolicy(inner, wid, lambda: quotas)
        new.append(policy)
        old.append(inner)

    victims = {"new": [], "old": []}
    for op in ops:
        kind = op[0]
        if kind in ("insert", "access", "remove"):
            wid, rdd, pid = op[1]
            block_id = (rdd, pid)
            for policies in (new, old):
                if kind == "insert":
                    if block_id in resident[wid]:  # as BlockStore.put does
                        policies[wid].on_remove(block_id)
                    policies[wid].on_insert(block_id, op[2])
                elif kind == "access":
                    policies[wid].on_access(block_id)
                else:
                    policies[wid].on_remove(block_id)
            if kind != "access":
                resident[wid].pop(block_id, None)
            if kind == "insert":
                resident[wid][block_id] = None
        elif kind == "evict":
            wid = op[1]
            if resident[wid]:
                for side, policies in (("new", new), ("old", old)):
                    victim = policies[wid].choose_victim()
                    victims[side].append(victim)
                    policies[wid].on_remove(victim)
                del resident[wid][victims["new"][-1]]
        elif kind == "quota":
            quotas.over ^= {op[1]}
        else:
            rdd = op[1]
            if kind == "ref_rise":
                oracles.refs[rdd] += 1
            elif kind == "cost_rise":
                oracles.costs[rdd] *= 2.0
            else:  # a fall: lowered, then announced to both sides
                if kind == "ref_fall":
                    oracles.refs[rdd] = max(0, oracles.refs[rdd] - 1)
                else:
                    oracles.costs[rdd] /= 2.0
                for wid in range(2):
                    for block_id in resident[wid]:
                        if block_id[0] == rdd:
                            new[wid].mark_dirty(block_id)
                            old[wid].mark_dirty(block_id)
        assert victims["new"] == victims["old"]
        assert [len(p) for p in new] == [len(p) for p in old] == [
            len(resident[0]), len(resident[1])]
