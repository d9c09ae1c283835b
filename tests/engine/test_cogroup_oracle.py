"""``CoGroupedRDD`` groups exactly as it used to, and every size it
declares is the walk's.

``reference_cogroup.compute`` is the cogroup body from before outputs
were sized from their parents' bytes.  Random cogroups of one to four
parents — narrow or shuffled, cached or not, with empty partitions, keys
of every kind (``1`` / ``1.0`` / ``True``, ``"a"`` / ``SimStr("a")``),
values under every row of the payload table in ``docs/COST_MODEL.md``,
and records that are not exact pairs (two-character strings, a
namedtuple) — run once through each body.  The records, their order,
the very key and value objects (of pair records) and the task timings
must be identical, no list may be shared between slots, and every size
``declare_size`` is handed must be an ``int`` equal to
``size_of_partition``.
"""

import dataclasses
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import StarkContext
from repro.cluster.cost_model import RecordSizer, SimStr
from repro.engine.compute import EvalContext
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffled import CoGroupedRDD

from . import reference_cogroup
from .test_sizing_walks import counting_walker

Pair = namedtuple("Pair", "key value")


class IntSub(int):
    """A builtin subclass that declares nothing."""


class StrSub(str):
    """A builtin subclass that declares nothing."""


class SizedInt(int):
    """A builtin subclass declaring its own size."""


def sized_int(value, size):
    out = SizedInt(value)
    out.sim_size = size
    return out


class Sized:
    """A user object declaring its own size."""

    def __init__(self, size):
        self.sim_size = size


class Opaque:
    """Neither builtin nor size-declaring: 48 bytes."""


SIZES = st.integers(0, 10 ** 6)
KEYS = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, "a",
                     SimStr("a"), SimStr("a", sim_size=50), b"a"]),
    st.integers(-3, 3),
    st.text(max_size=3),
    st.builds(IntSub, st.integers(0, 3)),
    st.builds(sized_int, st.integers(0, 3), SIZES),
    st.builds(SimStr, st.text(max_size=3), SIZES),
    st.tuples(st.integers(0, 2), st.text(max_size=2)),
)
LEAVES = st.one_of(
    KEYS,
    st.floats(allow_nan=False),
    st.binary(max_size=4),
    st.builds(StrSub, st.text(max_size=3)),
    st.builds(Sized, SIZES),
    st.builds(Opaque),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.builds(Pair, inner, inner),
        st.dictionaries(KEYS, inner, max_size=2),
    ),
    max_leaves=6,
)
PAIRS = st.one_of(st.tuples(KEYS, VALUES),
                  st.builds(lambda k, v: [k, v], KEYS, VALUES))
NON_PAIRS = st.one_of(
    st.text(min_size=2, max_size=2),
    st.builds(SimStr, st.text(min_size=2, max_size=2), SIZES),
    st.builds(Pair, KEYS, VALUES),
)


@st.composite
def cogroups(draw):
    """``(partitions, pairs_only, [(narrow, cached, partitions)])``."""
    partitions = draw(st.integers(1, 3))
    pairs_only = draw(st.booleans())
    record = PAIRS if pairs_only else st.one_of(PAIRS, NON_PAIRS)
    parents = []
    for _ in range(draw(st.integers(1, 4))):
        narrow = draw(st.booleans())
        count = partitions if narrow else draw(st.integers(1, 3))
        parts = draw(st.lists(st.lists(record, max_size=6),
                              min_size=count, max_size=count))
        parents.append((narrow, draw(st.booleans()), parts))
    return partitions, pairs_only, parents


def run(partitions, parents, declared):
    """Two actions over one cogroup (the second hits cached parents);
    ``declared`` collects every ``(list, size)`` declared."""
    sc = StarkContext(num_workers=2, cores_per_worker=2,
                      memory_per_worker=1e9)
    part = HashPartitioner(partitions)
    rdds = []
    for narrow, cached, parts in parents:
        rdd = sc.generated(lambda pid, parts=parts: parts[pid], len(parts),
                           partitioner=part if narrow else None,
                           read_cost="none")
        rdds.append(rdd.cache() if cached else rdd)
    merged = CoGroupedRDD(sc, rdds, part)
    real = EvalContext.declare_size

    def recording(self, records, size):
        declared.append((records, size))
        real(self, records, size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EvalContext, "declare_size", recording)
        outputs = [sc.run_job(merged, lambda records: records)
                   for _ in range(2)]
    tasks = [dataclasses.astuple(t) for job in sc.metrics.jobs
             for t in job.tasks]
    return outputs, tasks


def leaf(x):
    return type(x), getattr(x, "sim_size", None), repr(x)


def shape(outputs, width):
    """The records as exact types and reprs, checking the containers."""
    rows = []
    for partition in outputs:
        for record in partition:
            assert type(record) is tuple and len(record) == 2
            key, slots = record
            assert type(slots) is tuple and len(slots) == width
            assert all(type(slot) is list for slot in slots)
            rows.append((leaf(key), [[leaf(v) for v in slot]
                                     for slot in slots]))
    return rows


def identities(outputs):
    return [[(id(k), [list(map(id, slot)) for slot in slots])
             for k, slots in partition] for partition in outputs]


@settings(max_examples=100, deadline=None)
@given(cogroups())
def test_cogroup_matches_the_reference(case):
    partitions, pairs_only, parents = case
    declared = []
    new, new_tasks = run(partitions, parents, declared)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CoGroupedRDD, "compute", reference_cogroup.compute)
        old, old_tasks = run(partitions, parents, [])

    for got, want in zip(new, old):
        assert shape(got, len(parents)) == shape(want, len(parents))
        if pairs_only:  # unpacking a string record makes new objects
            # The very key and value objects the reference picked.
            assert identities(got) == identities(want)
        slots = [id(s) for partition in got for _, ss in partition
                 for s in ss]
        assert len(set(slots)) == len(slots)
    assert new_tasks == old_tasks

    sizer = RecordSizer()
    for records, size in declared:
        assert type(size) is int
        assert size == sizer.size_of_partition(records)
    if pairs_only:
        sized = {id(records) for records, _ in declared}
        assert all(id(partition) in sized
                   for outputs in new for partition in outputs)


def test_cogroup_over_a_migrated_block_declares_its_size():
    sc = StarkContext(num_workers=4, cores_per_worker=2,
                      memory_per_worker=1e9)
    part = HashPartitioner(4)
    parents = [
        sc.generated(
            lambda pid, tag=tag: [(f"k{(pid + i) % 5}",
                                   SimStr(f"{tag}{i}", sim_size=300))
                                  for i in range(10)],
            4, partitioner=part, read_cost="network").cache()
        for tag in "lr"]
    for rdd in parents:
        rdd.count()
    master = sc.block_manager_master
    for pid in range(4):
        for rdd in parents:
            block_id = (rdd.rdd_id, pid)
            src = min(master.locations(block_id))
            dst = (pid + 1) % 4
            if src != dst:
                assert master.migrate_block(block_id, src, dst)
            block = master.stores[dst].peek(block_id)
            assert block.serialized_bytes == \
                RecordSizer().size_of_partition(block.records)

    merged = parents[0].cogroup(parents[1])
    with counting_walker() as walked:
        rows = merged.collect()
    assert sum(t.cache_hits for t in sc.metrics.last_job().tasks) == 8
    # No record is walked.  The keys are text, so each of the 4 tasks
    # walks its output key list and its input key list once.
    assert walked["records"] == 2 * 4
    assert len(rows) == 4 * 5
