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
        #: The kernel doubles as the event queue (one heap for arrivals
        #: and failures).
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
