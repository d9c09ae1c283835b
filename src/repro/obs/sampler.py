"""Utilization sampler: resource timelines derived from the event stream.

A pure listener — it charges no simulated time and never touches the
engine.  From ``TaskEnd`` spans, cache block traffic, and shuffle
fetches it reconstructs three timelines:

* **slot occupancy** — how many executor slots are busy at any instant,
  per worker or cluster-wide (the utilization the paper's makespan
  arguments hinge on);
* **cache memory** — bytes resident per worker's block store over time,
  plus the complementary *block count* timeline (bytes alone cannot
  separate "few large columnar batches" from "many small row blocks" —
  the row-vs-columnar footprint comparison needs both);
* **network bytes in flight** — remote shuffle-fetch transfers modelled
  as intervals of ``remote_seconds`` carrying ``remote_bytes``.

Each timeline is a step function, returned as ``(time, value)`` change
points; :meth:`resample` grids any of them for charting.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from ..cluster.events import TIME_EPS

from .events import (
    BlockCached,
    BlockEvicted,
    Event,
    ShuffleFetch,
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
        #: (time, +/-bytes) network in-flight deltas, cluster-wide.
        self._network_deltas: List[Tuple[float, float]] = []
        self.tasks_seen = 0
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
            self.tasks_seen += 1
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
        elif isinstance(event, ShuffleFetch):
            if event.remote_bytes > 0:
                self._network_deltas.append(
                    (event.time, +event.remote_bytes))
                self._network_deltas.append(
                    (event.time + max(event.remote_seconds, 0.0),
                     -event.remote_bytes))

    def flush(self, t_end: Optional[float] = None) -> float:
        """Mark the end of the run so the last partial interval counts.

        Without a flush, every timeline ends at its final *change*
        point, silently dropping the tail — e.g. a cache left resident
        until run end contributes nothing past its last ``BlockCached``.
        Call this once the clock stops (``stark trace`` passes the max
        context time); timelines then carry a closing sample at
        ``t_end`` and ``time_weighted_mean`` covers the full span.
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

    def network_in_flight(self) -> Timeline:
        """Remote shuffle bytes in flight over time, cluster-wide."""
        return self._close(_deltas_to_timeline(self._network_deltas))

    def worker_ids(self) -> List[int]:
        return sorted(set(self._slot_deltas) | set(self._cache_deltas))

    # ---- summaries ---------------------------------------------------------

    @staticmethod
    def resample(timeline: Timeline, num_points: int,
                 t_start: Optional[float] = None,
                 t_end: Optional[float] = None) -> List[float]:
        """Sample a step timeline on a uniform grid of ``num_points``."""
        if not timeline or num_points <= 0:
            return [0.0] * max(num_points, 0)
        times = [t for t, _ in timeline]
        lo = times[0] if t_start is None else t_start
        hi = times[-1] if t_end is None else t_end
        if hi <= lo:
            return [timeline[-1][1]] * num_points
        step = (hi - lo) / num_points
        samples: List[float] = []
        for i in range(num_points):
            t = lo + (i + 0.5) * step
            idx = bisect.bisect_right(times, t) - 1
            samples.append(timeline[idx][1] if idx >= 0 else 0.0)
        return samples

    @staticmethod
    def time_weighted_mean(timeline: Timeline,
                           t_end: Optional[float] = None) -> float:
        """Mean level of a step timeline over its observed span."""
        if not timeline:
            return 0.0
        end = timeline[-1][0] if t_end is None else t_end
        total = 0.0
        span = end - timeline[0][0]
        if span <= 0:
            return timeline[-1][1]
        for (t0, level), (t1, _) in zip(timeline, timeline[1:]):
            total += level * (t1 - t0)
        total += timeline[-1][1] * max(end - timeline[-1][0], 0.0)
        return total / span

    def peak(self, timeline: Timeline) -> float:
        return max((level for _, level in timeline), default=0.0)
