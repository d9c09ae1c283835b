"""Shuffle machinery: map-output tracking and storage.

Spark's shuffle map tasks bucket their output by reduce partition and
commit the buckets to local disk; reduce tasks fetch each bucket from the
worker that produced it (disk read locally, disk + network remotely).
The :class:`MapOutputTracker` is the driver-side registry of where every
map output lives and how big it is — the simulator also keeps the actual
records so reduce tasks operate on real data.

Because map outputs are persisted, a stage whose shuffle outputs are all
registered can be *skipped* when a later job needs it again — exactly the
behaviour that makes the paper's "recompute from the reducing phase"
penalty well defined.

Lifetime: a shuffle's map outputs live exactly as long as its
:class:`~repro.engine.dependency.ShuffleDependency` is reachable (Spark's
``ContextCleaner``).  While any RDD whose lineage crosses the dependency
is alive, a later job may skip its map stage, so the outputs stay; once
the last such RDD is dropped no job can ever fetch them again, and the
DAG scheduler's weak reference to the dependency fires
:meth:`MapOutputTracker.unregister_shuffle` together with the release of
the matching ``Worker.shuffle_disk`` entries.  Release is driven by
reference counting (the lineage graph holds no cycles), so it happens
the moment the caller drops its handle, not when the cyclic garbage
collector runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass
class MapOutput:
    """One map task's output for one reduce partition."""

    worker_id: int
    size_bytes: float
    records: list


class MapOutputTracker:
    """Registry of shuffle map outputs: ``shuffle_id -> map_pid -> buckets``.

    Indexed by shuffle first, so every per-shuffle query, invalidation
    and release touches that one shuffle's entries only.
    """

    def __init__(self) -> None:
        # shuffle_id -> map_pid -> {reduce_pid: MapOutput}
        self._outputs: Dict[int, Dict[int, Dict[int, MapOutput]]] = {}
        # shuffle_id -> number of map partitions expected
        self._num_maps: Dict[int, int] = {}

    # ---- registration -------------------------------------------------------

    def register_shuffle(self, shuffle_id: int, num_maps: int) -> None:
        if num_maps <= 0:
            raise ValueError(f"shuffle needs at least one map partition: {num_maps}")
        existing = self._num_maps.get(shuffle_id)
        if existing is not None and existing != num_maps:
            raise ValueError(
                f"shuffle {shuffle_id} re-registered with {num_maps} maps "
                f"(previously {existing})"
            )
        self._num_maps[shuffle_id] = num_maps
        self._outputs.setdefault(shuffle_id, {})

    def register_map_output(
        self,
        shuffle_id: int,
        map_pid: int,
        worker_id: int,
        buckets: Dict[int, Tuple[float, list]],
    ) -> None:
        """Record that map task ``map_pid`` committed ``buckets`` (mapping
        reduce pid -> (size, records)) on ``worker_id``'s disk."""
        maps = self._outputs.get(shuffle_id)
        if maps is None:
            raise KeyError(f"shuffle {shuffle_id} was never registered")
        maps[map_pid] = {
            rpid: MapOutput(worker_id, size, records)
            for rpid, (size, records) in buckets.items()
        }

    # ---- queries ---------------------------------------------------------------

    def num_maps(self, shuffle_id: int) -> int:
        return self._num_maps[shuffle_id]

    def num_outputs(self) -> int:
        """Map outputs registered across every shuffle."""
        return sum(len(maps) for maps in self._outputs.values())

    def has_map_output(self, shuffle_id: int, map_pid: int) -> bool:
        return map_pid in self._outputs.get(shuffle_id, ())

    def is_shuffle_complete(self, shuffle_id: int) -> bool:
        """True when every map partition of the shuffle has committed."""
        num = self._num_maps.get(shuffle_id)
        if num is None:
            return False
        maps = self._outputs[shuffle_id]
        return all(m in maps for m in range(num))

    def missing_map_partitions(self, shuffle_id: int) -> List[int]:
        num = self._num_maps.get(shuffle_id)
        if num is None:
            return []
        maps = self._outputs[shuffle_id]
        return [m for m in range(num) if m not in maps]

    def outputs_for_reduce(self, shuffle_id: int, reduce_pid: int) -> List[MapOutput]:
        """All map outputs feeding reduce partition ``reduce_pid``.

        Raises if any map output is missing — the DAG scheduler must have
        run (or re-run) the map stage first.
        """
        num = self._num_maps.get(shuffle_id)
        if num is None:
            raise KeyError(f"shuffle {shuffle_id} was never registered")
        maps = self._outputs[shuffle_id]
        result: List[MapOutput] = []
        for m in range(num):
            buckets = maps.get(m)
            if buckets is None:
                raise RuntimeError(
                    f"map output missing for shuffle {shuffle_id} map {m}; "
                    "the map stage must run before reducers fetch"
                )
            out = buckets.get(reduce_pid)
            if out is not None:
                result.append(out)
        return result

    def reduce_input_bytes(self, shuffle_id: int, reduce_pid: int) -> float:
        return sum(o.size_bytes for o in self.outputs_for_reduce(shuffle_id, reduce_pid))

    # ---- failure handling ---------------------------------------------------------

    def remove_outputs_on_worker(self, worker_id: int) -> List[Tuple[int, int]]:
        """Invalidate map outputs stored on a failed worker.

        Returns the ``(shuffle_id, map_pid)`` pairs that must be re-run.
        Note: the paper (and Spark) commit shuffle output to *persistent*
        storage, so benchmarks only call this to model full machine loss
        including local disk.
        """
        doomed: List[Tuple[int, int]] = []
        for shuffle_id in list(self._outputs):
            doomed.extend(
                (shuffle_id, m)
                for m in self.remove_outputs_for_shuffle_on_worker(
                    shuffle_id, worker_id))
        return doomed

    def remove_outputs_for_shuffle_on_worker(
        self, shuffle_id: int, worker_id: int,
    ) -> List[int]:
        """Invalidate one shuffle's map outputs served by ``worker_id``.

        The scoped variant the DAG scheduler uses on a ``FetchFailed``:
        only the failing executor's outputs of the failing shuffle are
        dropped, so resubmission re-runs exactly the lost map partitions.
        Returns the map partitions removed.
        """
        maps = self._outputs.get(shuffle_id, {})
        doomed = sorted(
            m for m, buckets in maps.items()
            if any(o.worker_id == worker_id for o in buckets.values())
        )
        for m in doomed:
            del maps[m]
        return doomed

    def unregister_shuffle(self, shuffle_id: int) -> None:
        """Forget ``shuffle_id`` and every map output it registered."""
        self._outputs.pop(shuffle_id, None)
        self._num_maps.pop(shuffle_id, None)

    def total_shuffle_bytes(self) -> float:
        return sum(
            o.size_bytes
            for maps in self._outputs.values()
            for buckets in maps.values()
            for o in buckets.values()
        )
