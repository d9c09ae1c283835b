"""The cogroup as it was before it sized its output from its parents' bytes.

``CoGroupedRDD.compute`` used to group every parent's records into one
dict of per-key slot lists and leave the output to ``evaluate``, which
walked every grouped value again to size it.  It now groups each parent
on its own, assembles the output with ``zip`` and declares its size from
the parents' serialized bytes.  The body below is copied verbatim from
the last version that walked, as the reference
``tests/engine/test_cogroup_oracle.py`` holds the new one to: identical
inputs must give identical records, in identical order, with a fresh
list in every slot.
"""

from typing import TYPE_CHECKING, Any

from repro.engine.dependency import ShuffleDependency

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.compute import EvalContext


def compute(self, pid: int, ctx: "EvalContext") -> list:
    groups: dict = {}
    n = len(self.dependencies)

    def slot(key: Any) -> list:
        entry = groups.get(key)
        if entry is None:
            entry = [[] for _ in range(n)]
            groups[key] = entry
        return entry

    total_in = 0
    for idx, dep in enumerate(self.dependencies):
        if isinstance(dep, ShuffleDependency):
            records = ctx.fetch_shuffle(self, dep, pid)
        else:
            records = ctx.evaluate(dep.rdd, pid)
        total_in += len(records)
        for k, v in records:
            slot(k)[idx].append(v)
    ctx.charge_compute(self, total_in)
    return [(k, tuple(vals)) for k, vals in groups.items()]
