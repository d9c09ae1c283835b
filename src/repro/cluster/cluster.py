"""The simulated cluster: a set of workers plus shared infrastructure."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from .cost_model import CostModel, RecordSizer
from .events import SimKernel
from .worker import Worker


class Cluster:
    """A set of :class:`Worker` executors sharing a kernel and cost model.

    The paper's testbed runs 40 Spark workers; the default here matches
    that, scaled down in cores/RAM so that laptop-scale workloads exercise
    the same memory-pressure regimes.

    All time and slot state is owned by the cluster's
    :class:`~repro.cluster.events.SimKernel` (``self.kernel``); the
    ``clock`` and ``events`` attributes are views of it kept for
    compatibility (``events`` *is* the kernel).
    """

    def __init__(
        self,
        num_workers: int = 8,
        cores_per_worker: int = 4,
        memory_per_worker: float = 12e9,
        cost_model: Optional[CostModel] = None,
        sizer: Optional[RecordSizer] = None,
        seed: int = 0,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"cluster needs at least one worker: {num_workers}")
        self.kernel = SimKernel()
        self.clock = self.kernel.clock
        #: The kernel doubles as the event queue (one heap for arrivals,
        #: failures, timers and batch ticks).
        self.events = self.kernel
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.sizer = sizer if sizer is not None else RecordSizer()
        self.rng = random.Random(seed)
        self.workers: Dict[int, Worker] = {
            wid: Worker(wid, cores=cores_per_worker, memory_bytes=memory_per_worker)
            for wid in range(num_workers)
        }
        for worker in self.workers.values():
            self.kernel.register_worker(worker)

    # ---- views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.workers)

    @property
    def worker_ids(self) -> List[int]:
        return sorted(self.workers)

    def alive_workers(self) -> List[Worker]:
        return [w for w in self.workers.values() if w.alive]

    def alive_worker_ids(self) -> List[int]:
        return [w.worker_id for w in self.alive_workers()]

    def get_worker(self, worker_id: int) -> Worker:
        try:
            return self.workers[worker_id]
        except KeyError:
            raise KeyError(f"unknown worker id {worker_id}") from None

    def total_cores(self) -> int:
        return sum(w.cores for w in self.alive_workers())

    def earliest_free_worker(self, candidates: Optional[Sequence[int]] = None) -> int:
        """Worker (among ``candidates`` or all alive) whose next slot frees
        soonest; ties broken by id for determinism.  With no candidate
        filter this is O(log workers) via the kernel's inter-worker free
        heap; a candidate subset falls back to an O(candidates) scan of
        the kernel's cached per-worker minima."""
        if candidates is None:
            found = self.kernel.earliest_free_worker()
            if found is None:
                raise RuntimeError("no alive workers available")
            return found[0]
        ids = [i for i in candidates if self.workers[i].alive]
        if not ids:
            raise RuntimeError("no alive workers available")
        kernel = self.kernel
        return min(ids, key=lambda i: (kernel.earliest_free_time(self.workers[i]), i))

    # ---- elastic membership -------------------------------------------------

    def add_worker(
        self,
        cores: Optional[int] = None,
        memory_bytes: Optional[float] = None,
        ready_at: Optional[float] = None,
    ) -> int:
        """Provision a new worker; returns its id (max existing + 1).

        ``cores``/``memory_bytes`` default to the shape of the
        lowest-numbered existing worker (homogeneous fleets).  The new
        worker's slots are occupied until ``ready_at`` (default: now) —
        the caller charges the spin-up delay by passing
        ``now + cost_model.worker_spinup_seconds``.
        """
        template = self.workers[min(self.workers)] if self.workers else None
        if cores is None:
            cores = template.cores if template is not None else 4
        if memory_bytes is None:
            memory_bytes = template.memory_bytes if template is not None else 12e9
        worker_id = max(self.workers) + 1 if self.workers else 0
        worker = Worker(worker_id, cores=cores, memory_bytes=memory_bytes)
        ready = self.clock.now if ready_at is None else ready_at
        self.kernel.register_worker(worker, ready_at=ready)
        self.workers[worker_id] = worker
        return worker_id

    def remove_worker(self, worker_id: int) -> Worker:
        """Decommission a worker: drop it from the membership entirely
        (unlike :meth:`kill_worker`, which keeps a dead entry around for
        restart).  The caller is responsible for draining/migrating its
        state first — see ``repro.elastic.ResourceManager``."""
        worker = self.get_worker(worker_id)
        self.kernel.deregister_worker(worker)
        return self.workers.pop(worker_id)

    # ---- failure injection --------------------------------------------------

    def kill_worker(self, worker_id: int) -> None:
        self.kernel.kill_worker(self.get_worker(worker_id))

    def restart_worker(self, worker_id: int) -> None:
        self.kernel.restart_worker(self.get_worker(worker_id))

    # ---- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Reset kernel (clock + heap) and all workers (between experiments)."""
        self.kernel.reset()
        for w in self.workers.values():
            self.kernel.reset_worker(w)
            w.shuffle_disk.clear()
