"""Utilization sampler: resource timelines derived from the event stream.

A pure listener — it charges no simulated time and never touches the
engine.  From ``TaskEnd`` spans and cache block traffic it reconstructs
two timelines:

* **slot occupancy** — how many executor slots are busy at any instant,
  per worker or cluster-wide (the utilization the paper's makespan
  arguments hinge on);
* **cache memory** — bytes resident per worker's block store over time,
  plus the complementary *block count* timeline (bytes alone cannot
  separate "few large columnar batches" from "many small row blocks" —
  the row-vs-columnar footprint comparison needs both).

Each timeline is a step function, returned as ``(time, value)`` change
points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cluster.events import TIME_EPS

from .events import (
    BlockCached,
    BlockEvicted,
    Event,
    TaskEnd,
)

Timeline = List[Tuple[float, float]]


def _deltas_to_timeline(deltas: List[Tuple[float, float]]) -> Timeline:
    """Sorted (time, +/-delta) change points -> cumulative step series."""
    if not deltas:
        return []
    deltas = sorted(deltas)
    timeline: Timeline = []
    level = 0.0
    for time, delta in deltas:
        level += delta
        if timeline and abs(timeline[-1][0] - time) < TIME_EPS:
            timeline[-1] = (time, level)
        else:
            timeline.append((time, level))
    return timeline


class UtilizationSampler:
    """EventBus listener accumulating resource-usage change points."""

    def __init__(self) -> None:
        #: worker -> (time, +/-1) slot busy/free deltas.
        self._slot_deltas: Dict[int, List[Tuple[float, float]]] = {}
        #: worker -> (time, +/-bytes) cache residency deltas.
        self._cache_deltas: Dict[int, List[Tuple[float, float]]] = {}
        #: worker -> (time, +/-1) resident-block-count deltas.
        self._count_deltas: Dict[int, List[Tuple[float, float]]] = {}
        #: block -> size last cached (evictions carry no size).
        self._block_sizes: Dict[Tuple[int, int, int], float] = {}
        #: Latest event time seen (default end-of-run for :meth:`flush`).
        self._last_event_time = 0.0
        #: Run-end time set by :meth:`flush`; timelines are extended to
        #: it so the final partial interval is not dropped.
        self._t_end: Optional[float] = None

    # ---- listener ----------------------------------------------------------

    def on_event(self, event: Event) -> None:
        if event.time > self._last_event_time:
            self._last_event_time = event.time
        if isinstance(event, TaskEnd):
            start = event.time - event.duration
            deltas = self._slot_deltas.setdefault(event.worker_id, [])
            deltas.append((start, +1.0))
            deltas.append((event.time, -1.0))
        elif isinstance(event, BlockCached):
            key = (event.worker_id, event.rdd_id, event.partition)
            is_new = key not in self._block_sizes
            previous = self._block_sizes.get(key, 0.0)
            self._block_sizes[key] = event.size_bytes
            self._cache_deltas.setdefault(event.worker_id, []).append(
                (event.time, event.size_bytes - previous)
            )
            if is_new:
                self._count_deltas.setdefault(event.worker_id, []).append(
                    (event.time, +1.0)
                )
        elif isinstance(event, BlockEvicted):
            key = (event.worker_id, event.rdd_id, event.partition)
            if key in self._block_sizes:
                size = self._block_sizes.pop(key)
                if size:
                    self._cache_deltas.setdefault(event.worker_id, []).append(
                        (event.time, -size)
                    )
                self._count_deltas.setdefault(event.worker_id, []).append(
                    (event.time, -1.0)
                )

    def flush(self, t_end: Optional[float] = None) -> float:
        """Mark the end of the run so the last partial interval counts.

        Without a flush, every timeline ends at its final *change*
        point, silently dropping the tail — e.g. a cache left resident
        until run end contributes nothing past its last ``BlockCached``.
        Call this once the clock stops (``stark trace`` passes the max
        context time); timelines then carry a closing sample at
        ``t_end``, so a mean over them covers the full span.
        Returns the effective end time (defaults to the latest event
        seen).
        """
        self._t_end = self._last_event_time if t_end is None else t_end
        return self._t_end

    def _close(self, timeline: Timeline) -> Timeline:
        """Append the flushed end-of-run sample at the last level."""
        if (self._t_end is not None and timeline
                and self._t_end > timeline[-1][0] + TIME_EPS):
            timeline.append((self._t_end, timeline[-1][1]))
        return timeline

    # ---- timelines ---------------------------------------------------------

    def _timeline(self, deltas: Dict[int, List[Tuple[float, float]]],
                  worker_id: Optional[int]) -> Timeline:
        """One worker's step series, or every worker's merged when
        ``worker_id`` is ``None``."""
        if worker_id is not None:
            series = deltas.get(worker_id, [])
        else:
            series = [d for ds in deltas.values() for d in ds]
        return self._close(_deltas_to_timeline(series))

    def slot_occupancy(self, worker_id: Optional[int] = None) -> Timeline:
        """Busy-slot count over time for one worker, or summed across
        the cluster when ``worker_id`` is ``None``."""
        return self._timeline(self._slot_deltas, worker_id)

    def cache_bytes(self, worker_id: Optional[int] = None) -> Timeline:
        """Resident cache bytes over time (per worker or cluster-wide)."""
        return self._timeline(self._cache_deltas, worker_id)

    def cache_blocks(self, worker_id: Optional[int] = None) -> Timeline:
        """Resident cached-block *count* over time — the complement of
        :meth:`cache_bytes`.  Together they expose mean block size, which
        is what distinguishes a columnar working set (few, large record
        batches) from a row working set (many small blocks) at equal
        byte footprints."""
        return self._timeline(self._count_deltas, worker_id)
