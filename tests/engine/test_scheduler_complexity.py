"""Deterministic complexity lock for the delay scheduler's loop.

Counted with wrappers, never timed: one stage of ``N`` tasks must

* derive each task's alive preferred workers once per task set (the
  list-scanning scheduler re-derived them for every pending task on
  every launch, ~N^2/2 calls);
* key each pending task once to pick it — reads of ``Task.partition``
  stay linear in ``N`` where re-scanning the pending list on every ANY
  launch read all of them each time;
* read at most one worker's earliest-free slot per launch, plus one per
  worker per task set, while idle bumps are in force (the scan read
  every worker on every loop iteration once any bump existed).
"""

import pytest

from repro import StarkConfig, StarkContext
from repro.cluster.events import SimKernel
from repro.engine.task import Task
from repro.engine.task_scheduler import TaskScheduler

N = 200


class Counter:
    """Counts calls of a wrapped callable, only inside ``run_taskset``."""

    def __init__(self):
        self.calls = 0
        self.active = False

    def wrap(self, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.calls += 1
            return fn(*args, **kwargs)
        return counted

    def around_run_taskset(self, monkeypatch):
        run = TaskScheduler.run_taskset

        def counted_run(scheduler, tasks, submit_time):
            self.active = True
            try:
                return run(scheduler, tasks, submit_time)
            finally:
                self.active = False
        monkeypatch.setattr(TaskScheduler, "run_taskset", counted_run)


def mapped_stage(sc, cached_parent: bool):
    """Run one stage of N mapped tasks; with ``cached_parent`` every task
    prefers the worker caching its input partition."""
    parent = sc.parallelize(list(range(4 * N)), N)
    if cached_parent:
        parent = parent.cache()
        parent.count()
    return parent.map(lambda x: x + 1)


def test_alive_preferences_derived_once_per_task(monkeypatch):
    sc = StarkContext(num_workers=8, cores_per_worker=4, memory_per_worker=4e9)
    rdd = mapped_stage(sc, cached_parent=True)
    counter = Counter()
    monkeypatch.setattr(TaskScheduler, "_alive_preferred",
                        counter.wrap(TaskScheduler._alive_preferred))
    counter.around_run_taskset(monkeypatch)
    rdd.count()
    tasks = sc.metrics.last_job().tasks
    assert len(tasks) == N
    assert sum(t.locality == "PROCESS_LOCAL" for t in tasks) > N // 2
    assert counter.calls <= N


@pytest.mark.parametrize("cached_parent", [False, True])
def test_each_pending_task_is_keyed_once(monkeypatch, cached_parent):
    # locality_wait=0 makes the uncached stage all ANY launches, each of
    # which used to re-key the whole pending list.
    sc = StarkContext(num_workers=8, cores_per_worker=4, memory_per_worker=4e9,
                      config=StarkConfig(locality_wait=0.0))
    rdd = mapped_stage(sc, cached_parent)
    counter = Counter()
    monkeypatch.setattr(Task, "partition",
                        property(counter.wrap(Task.partition.fget)))
    counter.around_run_taskset(monkeypatch)
    rdd.count()
    assert len(sc.metrics.last_job().tasks) == N
    assert counter.calls <= 4 * N


def test_worker_reads_per_launch_under_idle_bumps(monkeypatch):
    # Every task prefers the single-slot worker caching its input and
    # never gives up waiting for it; worker 0 is busy until t=1, so the
    # others drain their queues and then idle behind bumps until it frees.
    workers = 8
    sc = StarkContext(num_workers=workers, cores_per_worker=1,
                      memory_per_worker=4e9,
                      config=StarkConfig(locality_wait=10.0))
    rdd = mapped_stage(sc, cached_parent=True)
    sc.cluster.kernel.set_slot_free_time(sc.cluster.get_worker(0), 0, 1.0)
    counter = Counter()
    monkeypatch.setattr(SimKernel, "earliest_free_slot",
                        counter.wrap(SimKernel.earliest_free_slot))
    counter.around_run_taskset(monkeypatch)
    rdd.count()
    tasks = sc.metrics.last_job().tasks
    assert all(t.locality == "PROCESS_LOCAL" for t in tasks)
    assert min(t.start_time for t in tasks if t.worker_id == 0) >= 1.0
    assert max(t.finish_time for t in tasks if t.worker_id != 0) < 1.0
    assert counter.calls <= workers + N
