"""Decision identity: the indexed delay scheduler launches what the
list-scanning one did.

``reference_task_scheduler.ReferenceTaskScheduler`` is the previous
``run_taskset`` with its helpers, copied verbatim, and
``ReferenceDefaultRemotePolicy`` the previous default remote policy.
Each example runs one seeded job sequence twice — once under the
reference, once under the current scheduler — and requires equal
per-attempt decisions ``(task_id, attempt, worker, start, finish,
locality, status)``, equal slot writes ``(worker, slot, begin,
duration)`` in the same order, equal event streams, equal job results
or errors, equal final slot free times and an equal ``cluster.rng``
state afterwards (so every random draw came in the same order).

The scenarios cover stage sizes 1-200, forced preferences naming dead,
unknown and duplicated workers, cached-parent and co-locality
preferences, preloaded slot free times (up to a dozen slots, from just
past zero to many task lengths, so workers start unevenly loaded),
``locality_wait`` of 0, 0.1 and 10, the default and MCF remote
policies, failures with backoff and jitter, blacklisting, and workers
killed or restarted between task sets.
"""

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import StarkConfig, StarkContext
from repro.cluster.cluster import Cluster
from repro.cluster.cost_model import CostModel
from repro.engine.failure import FailureInjector
from repro.engine.partitioner import HashPartitioner
from repro.engine.task_scheduler import DefaultRemotePolicy, TaskScheduler
from repro.obs.listeners import EventCollector

from .reference_task_scheduler import (ReferenceDefaultRemotePolicy,
                                       ReferenceTaskScheduler)


@dataclass
class Scenario:
    seed: int
    workers: int
    cores: int
    wait: float
    mcf: bool
    #: (kind, tasks, (action, worker) before the job or None)
    jobs: List[Tuple[str, int, Optional[Tuple[str, int]]]]
    #: Seed of forced preferences (any ids, dead or duplicated), or None.
    forced_prefs: Optional[int] = None
    preload: List[Tuple[int, int, float]] = field(default_factory=list)
    failure_prob: float = 0.0
    backoff: float = 0.5
    jitter: float = 0.2
    max_failures: int = 4
    stage_blacklist: int = 2
    executor_blacklist: int = 4
    blacklist_timeout: float = 60.0
    external_shuffle: bool = True
    #: Multiplies every cost (see ``cost_model``) and preloaded free time.
    time_scale: float = 1.0


#: Time-valued CostModel fields; rates in bytes per second scale inversely.
SCALED_COSTS = ("cpu_per_record", "shuffle_cpu_per_record", "network_latency",
                "task_launch_overhead", "driver_overhead_per_task",
                "disk_bytes_per_sec", "network_bytes_per_sec",
                "serde_bytes_per_sec", "memory_bytes_per_sec")


def cost_model(scale: float) -> CostModel:
    """The default cost model with every duration multiplied by ``scale``."""
    base = CostModel()
    return CostModel(**{
        name: getattr(base, name) * (1 / scale if name.endswith("_per_sec") else scale)
        for name in SCALED_COSTS})


def scheduler_class(base, forced_prefs, id_space):
    """``base`` that overwrites every task's preferred workers with a
    list drawn from ``forced_prefs`` before scheduling it (the same list
    under both schedulers: the draw is keyed by stage and partition)."""
    if forced_prefs is None:
        return base

    class Forced(base):
        def run_taskset(self, tasks, submit_time):
            for t in tasks:
                rng = random.Random(
                    f"{forced_prefs}:{t.stage.stage_id}:{t.partition}")
                t.preferred_workers = [rng.randrange(id_space)
                                       for _ in range(rng.randint(0, 3))]
            return super().run_taskset(tasks, submit_time)
    return Forced


def run(scn: Scenario, reference: bool):
    config = StarkConfig(
        locality_wait=scn.wait, mcf_enabled=scn.mcf,
        task_failure_prob=scn.failure_prob,
        task_retry_backoff=scn.backoff, task_retry_jitter=scn.jitter,
        max_task_failures=scn.max_failures,
        max_failures_per_executor_stage=scn.stage_blacklist,
        max_failures_per_executor=scn.executor_blacklist,
        blacklist_timeout=scn.blacklist_timeout,
        external_shuffle_service=scn.external_shuffle)
    cluster = Cluster(num_workers=scn.workers, cores_per_worker=scn.cores,
                      memory_per_worker=1e9, seed=scn.seed,
                      cost_model=cost_model(scn.time_scale))
    sc = StarkContext(cluster=cluster, config=config)
    policy = sc.task_scheduler.remote_policy
    if reference and isinstance(policy, DefaultRemotePolicy):
        policy = ReferenceDefaultRemotePolicy()
    cls = scheduler_class(ReferenceTaskScheduler if reference else TaskScheduler,
                          scn.forced_prefs, scn.workers + 2)
    sc.task_scheduler = cls(sc, locality_wait=scn.wait, remote_policy=policy)
    collector = EventCollector()
    sc.event_bus.subscribe(collector)

    kernel = cluster.kernel
    slot_writes = []
    occupy, set_free = kernel.occupy_slot, kernel.set_slot_free_time

    def logged_occupy(worker, slot, start, duration):
        slot_writes.append(("occupy", worker.worker_id, slot, start, duration))
        return occupy(worker, slot, start, duration)

    def logged_set(worker, slot, t):
        slot_writes.append(("set", worker.worker_id, slot, t))
        set_free(worker, slot, t)

    kernel.occupy_slot, kernel.set_slot_free_time = logged_occupy, logged_set
    for wid, slot, t in scn.preload:
        kernel.set_slot_free_time(cluster.get_worker(wid % scn.workers),
                                  slot % scn.cores, t * scn.time_scale)

    injector = FailureInjector(sc)
    part = HashPartitioner(3)
    base = sc.parallelize([(i % 7, i) for i in range(24)], 6).cache()
    results = []
    for kind, n, action in scn.jobs:
        if action is not None:
            verb, wid = action
            if verb == "kill":
                injector.kill_worker(wid % scn.workers)
            else:
                injector.restart_worker(wid % scn.workers)
        data = [(i % 5, i) for i in range(2 * n)]
        try:
            if kind == "map":
                rdd = sc.parallelize(data, n).map(lambda kv: kv)
            elif kind == "cached":
                rdd = base.map_values(lambda v: v + 1)
            elif kind == "shuffle":
                rdd = sc.parallelize(data, n).reduce_by_key(lambda a, b: a + b)
            else:  # "colocated": LocalityManager pins, MCF spreads replicas
                rdd = sc.parallelize(data, n).locality_partition_by(
                    part, "oracle").cache()
            results.append(sorted(rdd.collect()))
        except RuntimeError as exc:
            results.append((type(exc).__name__, str(exc)))

    decisions = [
        (t.task_id, t.attempt, t.worker_id, t.start_time, t.finish_time,
         t.locality, t.status)
        for job in sc.metrics.jobs for t in job.tasks
    ]
    free_times = {wid: list(w.slot_free_times)
                  for wid, w in cluster.workers.items()}
    return (decisions, slot_writes, collector.events, results, free_times,
            cluster.rng.getstate())


def assert_identical(scn: Scenario):
    ref = run(scn, reference=True)
    new = run(scn, reference=False)
    names = ("decisions", "slot writes", "events", "results",
             "slot free times", "rng state")
    for name, a, b in zip(names, ref, new):
        assert a == b, f"{name} differ for {scn}"


ACTIONS = st.one_of(
    st.none(), st.none(),
    st.tuples(st.sampled_from(["kill", "restart"]), st.integers(0, 5)))
def jobs(max_tasks):
    return st.lists(st.tuples(
        st.sampled_from(["map", "map", "cached", "shuffle", "colocated"]),
        st.integers(1, max_tasks), ACTIONS), min_size=1, max_size=3)


PRELOAD = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2),
                             st.sampled_from([0.0, 0.001, 0.01, 0.02, 0.05,
                                              0.1, 0.3, 0.7, 2.0, 6.0])),
                   max_size=12)

EXAMPLES = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def base_scenario(draw, max_tasks=200) -> Scenario:
    return Scenario(
        seed=draw(st.integers(0, 2**16)),
        workers=draw(st.integers(1, 6)),
        cores=draw(st.integers(1, 3)),
        wait=draw(st.sampled_from([0.0, 0.1, 10.0])),
        mcf=draw(st.booleans()),
        jobs=draw(jobs(max_tasks)),
        forced_prefs=draw(st.one_of(st.none(), st.integers(0, 2**16))),
        preload=draw(PRELOAD),
    )


@st.composite
def placements(draw):
    return base_scenario(draw)


@st.composite
def faults(draw):
    scn = base_scenario(draw, max_tasks=60)
    # A ready retry whose live preferences all failed it idles every slot
    # in 1 us steps until the locality wait has run out since the last
    # launch (which the offered time can trail).  Tasks 1000x shorter keep
    # those stalls to a few steps of the reference's O(pending) loop.
    scn.time_scale = 1e-3
    scn.wait = draw(st.sampled_from([0.0, 1e-5]))
    scn.failure_prob = draw(st.sampled_from([0.1, 0.3, 0.6]))
    scn.backoff = draw(st.sampled_from([0.0, 1e-5, 5e-4]))
    scn.jitter = draw(st.sampled_from([0.0, 0.2, 1.0]))
    scn.max_failures = draw(st.sampled_from([2, 4, 8]))
    scn.stage_blacklist = draw(st.integers(1, 3))
    scn.executor_blacklist = draw(st.integers(1, 5))
    scn.blacklist_timeout = draw(st.sampled_from([2e-5, 1e-4, 5e-4]))
    scn.external_shuffle = draw(st.booleans())
    return scn


@EXAMPLES
@given(placements())
def test_placement_decisions_match_reference(scn):
    assert_identical(scn)


@EXAMPLES
@given(faults())
def test_retry_and_blacklist_decisions_match_reference(scn):
    assert_identical(scn)


def test_large_stage_with_forced_preferences_and_a_dead_worker():
    assert_identical(Scenario(
        seed=3, workers=5, cores=2, wait=0.1, mcf=False,
        jobs=[("map", 200, None), ("cached", 6, ("kill", 2)),
              ("map", 150, ("restart", 2))],
        forced_prefs=11, preload=[(0, 0, 0.3), (4, 1, 2.0)]))


def test_backoff_retries_under_idle_bumps():
    # Retries back off while idle bumps are in force and remote launches
    # pop them, so the offered time moves backwards between iterations.
    assert_identical(Scenario(
        seed=5, workers=4, cores=3, wait=1e-5, mcf=False,
        jobs=[("map", 120, None), ("cached", 6, None), ("map", 80, None)],
        forced_prefs=7, failure_prob=0.3, backoff=1e-5, jitter=1.0,
        max_failures=8, stage_blacklist=3, executor_blacklist=5,
        blacklist_timeout=2e-5, time_scale=1e-3))
