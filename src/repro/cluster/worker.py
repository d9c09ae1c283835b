"""Workers (executors) of the simulated cluster.

A :class:`Worker` models one executor JVM: a fixed number of task slots
(cores), a RAM budget shared by the block cache and task working sets, and
a local disk holding shuffle map outputs.  Slot occupancy is tracked as
per-slot *free times* in simulated seconds — the scheduler assigns a task
to a slot by picking the earliest-free slot and pushing its free time
forward by the task duration.

Workers are passive state holders: every **mutation** of slot state
(occupy, kill, restart) goes through the
:class:`~repro.cluster.events.SimKernel` a worker is registered with —
the single time authority — which also maintains the cached
earliest-free-slot index that makes the read path O(1).  The read
methods here delegate to the kernel when attached and fall back to a
linear scan for bare, unregistered workers (unit-test convenience).
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

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"worker needs at least one core: {self.cores}")
        if self.memory_bytes <= 0:
            raise ValueError(f"worker needs positive memory: {self.memory_bytes}")
        # Absolute simulated time at which each slot becomes idle.  This
        # declaration is the one blessed assignment outside the kernel;
        # all subsequent writes go through SimKernel APIs.
        self.slot_free_times: List[float] = [0.0] * self.cores
        self.alive: bool = True
        # Shuffle map outputs persisted on this worker's local disk:
        # shuffle_id -> {(map_partition, reduce_partition): size_bytes},
        # so releasing one shuffle drops one entry per worker.
        self.shuffle_disk: Dict[int, Dict[Tuple[int, int], float]] = {}
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
