"""Scaling probes: a handful of layer calls timed directly at three sizes.

Each probe reports the least-squares slope of log(seconds per call)
against log(size) as ``probe.<layer>.exp`` — 0 is constant, 1 linear —
so a linear scan hiding where O(log n) was intended reads as 1.  They
are reported, never bounded, and together take a few seconds.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from adapter import (
    Block,
    Cluster,
    EventCollector,
    RecordSizer,
    StarkConfig,
    StarkContext,
    critical_paths,
    make_policy,
)


def slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(y) on log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-12)) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _best(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def _broker_context(blocks: int, workers: int = 8):
    """A broker-mode context whose stores hold ``blocks`` blocks of one
    RDD, spread evenly, every store exactly full."""
    per_worker = blocks // workers
    sc = StarkContext(
        num_workers=workers, cores_per_worker=2,
        memory_per_worker=per_worker * 100.0 / 0.6,
        config=StarkConfig(cache_broker=True, cache_policy="lrc",
                           locality_enabled=False, mcf_enabled=False,
                           replication_enabled=False))
    rdd = sc.parallelize(list(range(blocks)), blocks).cache()
    master = sc.block_manager_master
    for pid in range(per_worker * workers):
        master.put(pid % workers, Block((rdd.rdd_id, pid), [pid], 100.0))
    return sc, rdd


def broker_victim(blocks: int) -> float:
    sc, _ = _broker_context(blocks)
    return _best(lambda: sc.cache_broker.choose_local_victim(0))


def broker_relieve(blocks: int) -> float:
    sc, rdd = _broker_context(blocks)
    store = sc.block_manager_master.stores[0]
    incoming = Block((rdd.rdd_id, blocks), [0], 100.0)
    return _best(lambda: sc.cache_broker.relieve_pressure(store, incoming))


def policy_victim(blocks: int) -> float:
    policy = make_policy("lrc", ref_fn=lambda block_id: block_id[1] % 3,
                         cost_fn=lambda rdd_id: 1.0)
    for pid in range(blocks):
        policy.on_insert((0, pid), 100.0)
    return _best(policy.choose_victim)


def kernel_slot(workers: int, calls: int = 2000) -> float:
    cluster = Cluster(num_workers=workers, cores_per_worker=2)
    kernel = cluster.kernel

    def launch() -> None:
        for _ in range(calls):
            worker = cluster.workers[cluster.earliest_free_worker()]
            kernel.run_on_earliest_slot(worker, 0.0, 0.01)

    return _best(launch) / calls


def sizer_partition(records: int) -> float:
    sizer = RecordSizer()
    data = [(i, ("event", i, 3.5)) for i in range(records)]
    return _best(lambda: sizer.size_of_partition(data))


def critpath(jobs: int) -> float:
    sc = StarkContext(num_workers=4, cores_per_worker=2,
                      config=StarkConfig(locality_enabled=False,
                                         mcf_enabled=False,
                                         replication_enabled=False))
    collector = sc.event_bus.subscribe(EventCollector())
    rdd = sc.parallelize(list(range(64)), 8).cache()
    for _ in range(jobs):
        rdd.count()
    events = collector.events
    return _best(lambda: critical_paths(events), repeats=1)


#: metric name -> (probe, the three sizes)
PROBES: Dict[str, Tuple[Callable[[int], float], Tuple[int, int, int]]] = {
    "probe.cache.broker.victim.exp": (broker_victim, (100, 1000, 10000)),
    "probe.cache.broker.relieve.exp": (broker_relieve, (100, 1000, 10000)),
    "probe.cache.policy.exp": (policy_victim, (100, 1000, 10000)),
    "probe.cluster.kernel.exp": (kernel_slot, (4, 32, 256)),
    "probe.cluster.sizer.exp": (sizer_partition, (1000, 10000, 100000)),
    "probe.obs.critpath.exp": (critpath, (50, 200, 800)),
}


def run_all() -> Tuple[Dict[str, float], List[str]]:
    """Every probe's exponent, and one printable line per probe."""
    exponents: Dict[str, float] = {}
    lines: List[str] = []
    for name, (probe, sizes) in PROBES.items():
        points = [(float(size), probe(size)) for size in sizes]
        exponents[name] = slope(points)
        timings = "  ".join(f"{int(x)}: {y * 1e6:.1f}us" for x, y in points)
        lines.append(f"{name:34s} {exponents[name]:5.2f}   {timings}")
    return exponents, lines
