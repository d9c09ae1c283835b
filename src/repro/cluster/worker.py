"""Workers (executors) of the simulated cluster.

A :class:`Worker` models one executor JVM: a fixed number of task slots
(cores), a RAM budget shared by the block cache and task working sets, and
a local disk holding shuffle map outputs.  Slot occupancy is tracked as
per-slot *free times* in simulated seconds — the scheduler assigns a task
to a slot by picking the earliest-free slot and pushing its free time
forward by the task duration.

Workers are passive state holders: every **mutation** of slot state
(occupy, kill, restart, provision) goes through the
:class:`~repro.cluster.events.SimKernel` a worker is registered with —
the single time authority — which also maintains the cached
earliest-free-slot index that makes the read path O(1).  The read
methods here delegate to the kernel when attached and fall back to a
linear scan for bare, unregistered workers (unit-test convenience).

Workers are heterogeneous: a constant ``speed`` multiplier (>= 1 means
slower hardware) and a list of transient ``slowdowns`` windows
``(start, end, factor)`` — GC pauses, noisy neighbours — stretch a
task's *wall* duration beyond its nominal work
(:meth:`Worker.wall_duration`).  Defaults are the identity, so a
homogeneous cluster behaves exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .events import TIME_EPS


@dataclass
class Worker:
    """One executor: ``cores`` task slots and ``memory_bytes`` of RAM."""

    worker_id: int
    cores: int = 4
    memory_bytes: float = 12e9
    #: Constant wall-time multiplier: 1.0 is nominal, 2.0 runs everything
    #: twice as slowly.
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"worker needs at least one core: {self.cores}")
        if self.memory_bytes <= 0:
            raise ValueError(f"worker needs positive memory: {self.memory_bytes}")
        if self.speed < 1.0:
            raise ValueError(f"worker speed multiplier must be >= 1: {self.speed}")
        # Absolute simulated time at which each slot becomes idle.  This
        # declaration is the one blessed assignment outside the kernel;
        # all subsequent writes go through SimKernel APIs.
        self.slot_free_times: List[float] = [0.0] * self.cores
        self.alive: bool = True
        # Shuffle map outputs persisted on this worker's local disk:
        # (shuffle_id, map_partition, reduce_partition) -> size_bytes.
        self.shuffle_disk: Dict[Tuple[int, int, int], float] = {}
        # Transient slowdown windows (start, end, factor), factor >= 1.
        self.slowdowns: List[Tuple[float, float, float]] = []
        # Set by SimKernel.register_worker; reads delegate to the
        # kernel's cached index when attached.
        self._kernel = None

    # ---- slot views (mutations live in SimKernel) --------------------------

    def earliest_free_slot(self) -> Tuple[int, float]:
        """Return ``(slot_index, free_time)`` of the earliest-free slot."""
        if self._kernel is not None:
            return self._kernel.earliest_free_slot(self)
        slot = min(range(self.cores), key=lambda i: self.slot_free_times[i])
        return slot, self.slot_free_times[slot]

    def earliest_free_time(self) -> float:
        if self._kernel is not None:
            return self._kernel.earliest_free_time(self)
        return min(self.slot_free_times)

    def wall_duration(self, begin: float, work_seconds: float) -> float:
        """Wall-clock seconds to complete ``work_seconds`` of nominal work
        starting at ``begin`` on this worker.

        The constant ``speed`` multiplier stretches all work; transient
        ``slowdowns`` windows stretch whatever portion of the run overlaps
        them by their factor (piecewise integration, so a task that
        straddles a window pays the slowdown only for the overlap).  On a
        nominal worker with no windows this is the identity.
        """
        if work_seconds <= 0:
            return 0.0
        wall = work_seconds * self.speed
        if not self.slowdowns:
            return wall
        t = begin
        remaining = wall
        for start, end, factor in sorted(self.slowdowns):
            if remaining <= 0 or end <= t:
                continue
            if start > t:
                gap = start - t
                if remaining <= gap:
                    t += remaining
                    remaining = 0.0
                    break
                t = start
                remaining -= gap
            # Inside the window work progresses ``factor`` times slower.
            progress = (end - t) / factor
            if remaining <= progress:
                t += remaining * factor
                remaining = 0.0
                break
            t = end
            remaining -= progress
        result = (t + remaining) - begin
        # Tasks that never touched a window must pay exactly ``wall`` —
        # the piecewise walk above leaves float residue that would
        # otherwise masquerade as straggler time.
        return wall if abs(result - wall) < TIME_EPS else result

    def pending_work_until(self, now: float) -> float:
        """Total queued seconds of slot occupancy beyond ``now``."""
        return sum(max(0.0, t - now) for t in self.slot_free_times)

    def idle_slots(self, now: float) -> int:
        """Number of slots free at simulated time ``now``."""
        return sum(1 for t in self.slot_free_times if t <= now + TIME_EPS)

    def has_idle_slot(self, now: float) -> bool:
        """Whether any slot is free at ``now`` — equivalent to
        ``idle_slots(now) > 0`` but O(1) via the kernel's cached
        earliest-free slot instead of an O(cores) scan.  The scheduler's
        offer construction calls this once per worker per launch, which
        made the scan version an O(workers x cores) hot path."""
        return self.earliest_free_time() <= now + TIME_EPS
