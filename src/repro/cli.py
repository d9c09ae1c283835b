"""Command-line interface: regenerate any figure of the paper.

Usage::

    python -m repro list
    python -m repro fig11 --rdd-counts 1 2 3 4 5 6
    python -m repro fig19 --rates 2 5 10 20 40
    python -m repro all          # everything (several minutes)

Each command prints the paper-style rows the corresponding figure
reports; delays are simulated seconds (see README for calibration).
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from . import obs
from .bench import harness
from .bench.ascii_charts import timeline_chart, utilization_chart
from .bench.reporting import print_comparison, print_table
from .cache import POLICY_NAMES, set_default_policy

if TYPE_CHECKING:  # pragma: no cover
    from .engine.context import StarkContext


def _cmd_fig01(args: argparse.Namespace) -> None:
    result = harness.run_fig01(file_bytes=args.file_mb * 1e6)
    print_table(
        "Fig 1(b): data locality benefits (simulated s)",
        ["bar", "delay (s)"],
        [["C (first count)", result.c_count_delay],
         ["D (cached)", result.d_cached_delay],
         ["D- (no locality)", result.d_nolocality_delay]],
    )


def _cmd_fig07(args: argparse.Namespace) -> None:
    points = harness.run_fig07(partition_counts=tuple(args.partitions))
    print_table("Fig 7: delay vs number of partitions",
                ["partitions", "delay (s)"], points)


def _cmd_fig11(args: argparse.Namespace) -> None:
    results = harness.run_colocality(rdd_counts=tuple(args.rdd_counts))
    by: Dict[int, Dict[str, harness.CoLocalityResult]] = {}
    for r in results:
        by.setdefault(r.num_rdds, {})[r.config] = r
    rows = []
    for n in sorted(by):
        spark = by[n]["Spark-H"].job_delay
        stark = by[n]["Stark-H"].job_delay
        rows.append([n, spark, stark, spark / stark])
    print_table("Fig 11: co-locality job delay",
                ["rdds", "Spark-H (s)", "Stark-H (s)", "speedup"], rows)


def _cmd_fig12(args: argparse.Namespace) -> None:
    results = harness.run_colocality(rdd_counts=tuple(args.rdd_counts),
                                     queries_per_point=2)
    rows = []
    for r in results:
        total = sum(r.task_delays)
        gc = sum(r.task_gc)
        rows.append([r.config, r.num_rdds, max(r.task_delays),
                     gc / total if total else 0.0])
    print_table("Fig 12: task delay and GC fraction",
                ["config", "rdds", "max task (s)", "gc fraction"], rows)


def _cmd_skew(args: argparse.Namespace) -> None:
    results = harness.run_skew()
    rows13, rows14, rows15 = [], [], []
    for r in results:
        sizes = r.task_input_sizes
        mean = statistics.fmean(sizes) if sizes else 0.0
        cv = statistics.pstdev(sizes) / mean if mean else 0.0
        rows13.append([r.config, str(r.collection), len(sizes),
                       max(sizes) / 1e6 if sizes else 0.0, cv])
        rows14.append([r.config, str(r.collection),
                       r.first_job_delay, r.second_job_delay])
        delays = sorted(r.task_delays)
        rows15.append([r.config, str(r.collection), delays[0],
                       statistics.median(delays), delays[-1],
                       sum(r.task_shuffle_times)])
    print_table("Fig 13: task input sizes",
                ["config", "collection", "tasks", "max (MB)", "cv"], rows13)
    print_table("Fig 14: job delay (1st vs 2nd)",
                ["config", "collection", "1st (s)", "2nd (s)"], rows14)
    print_table("Fig 15: task delay min/mid/max + shuffle",
                ["config", "collection", "min", "mid", "max", "shuffle"],
                rows15)


def _cmd_fig17(args: argparse.Namespace) -> None:
    rows = harness.run_fig17(num_steps=args.steps)
    print_table(
        "Fig 17: cached vs checkpoint size (MB)",
        ["rdd", "cached", "checkpoint", "ratio"],
        [[name, c / 1e6, w / 1e6, c / w if w else float("nan")]
         for name, c, w in rows],
    )


def _cmd_fig18(args: argparse.Namespace) -> None:
    series = harness.run_fig18(num_steps=args.steps)
    by = {s.policy: s.cumulative_bytes for s in series}
    steps = range(1, args.steps + 1)
    print_table(
        "Fig 18: cumulative checkpointed data (MB)",
        ["step"] + list(by),
        [[s] + [by[p][s - 1] / 1e6 for p in by] for s in steps],
    )


def _cmd_fig19(args: argparse.Namespace) -> None:
    points, throughput = harness.run_fig19(rates=tuple(args.rates))
    print_table("Fig 19: mean delay (ms) vs rate (jobs/s)",
                ["config", "rate", "delay (ms)"],
                [[p.config, p.rate, p.mean_delay * 1000] for p in points])
    print_table("Fig 19: throughput at the 800 ms cap",
                ["config", "jobs/s"], sorted(throughput.items()))
    if throughput.get("Spark-H"):
        print_comparison("throughput gain", "Spark-H",
                         throughput["Spark-H"], "Stark-H",
                         throughput["Stark-H"], higher_is_better=True)


def _cmd_fig20(args: argparse.Namespace) -> None:
    from .bench.ascii_charts import sparkline

    points = harness.run_fig20(hours=args.hours, steps_per_hour=1,
                               jobs_per_step=args.jobs_per_step)
    by: Dict[str, Dict[float, float]] = {}
    for p in points:
        by.setdefault(p.config, {})[p.hour] = p.mean_delay
    hours = sorted(next(iter(by.values())))
    print_table("Fig 20: mean delay (ms) over the day",
                ["hour"] + list(by),
                [[h] + [by[c][h] * 1000 for c in by] for h in hours])
    print()
    for config, per_hour in by.items():
        series = [per_hour[h] for h in hours]
        print(f"{config:>8s}  {sparkline(series)}  "
              f"(max {max(series) * 1000:.0f} ms)")


def _cmd_cache_broker(args: argparse.Namespace) -> int:
    """Run the canned broker workload and print the cluster-wide cache
    broker's view: per-worker residency, the most valuable resident
    blocks, and the cross-job sharing / memory-market counters."""
    context = WORKLOADS["broker"]()
    broker = context.cache_broker
    master = context.block_manager_master
    print_table(
        "Cache broker: per-worker residency",
        ["worker", "blocks", "resident (KB)", "capacity (KB)"],
        [[wid, broker.resident_count(wid),
          master.used_bytes(wid) / 1e3,
          master.stores[wid].capacity_bytes / 1e3]
         for wid in sorted(master.stores)],
        floatfmt="{:.6f}",
    )
    print_table(
        f"Cache broker: top {args.top} blocks by value "
        "(recompute_cost x (1 + refs) / size)",
        ["value (µs/B)", "worker", "rdd", "partition", "size (KB)"],
        [[value * 1e6, wid, bid[0], bid[1],
          master.stores[wid].peek(bid).size_bytes / 1e3]
         for value, wid, bid in broker.top_blocks(args.top)],
        floatfmt="{:.6f}",
    )
    print_table(
        "Cache broker: cross-job sharing and memory-market counters",
        ["counter", "value"],
        [["prefix hits (cross-job serves)", broker.prefix_hits],
         ["prefix hits paying a remote read", broker.prefix_remote_hits],
         ["prefix misses (no live provider)", broker.prefix_misses],
         ["broker evictions (market)", broker.broker_evictions],
         ["broker migrations (market)", broker.broker_migrations],
         ["ledger bytes", broker.accounted_bytes()],
         ["resident bytes", master.total_cached_bytes()]],
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.broker:
        return _cmd_cache_broker(args)
    results = harness.run_cache_policies(
        policies=tuple(args.policies),
        iterations=args.iterations,
    )
    print_table(
        "Cache policies: iterative workload under memory pressure",
        ["policy", "mean job (s)", "hit rate", "evictions",
         "recomputed", "recompute (s)"],
        [[r.policy, r.mean_makespan, f"{r.hit_rate:.2%}", r.evictions,
          r.recomputed_partitions, r.recompute_time]
         for r in results],
        floatfmt="{:.4f}",
    )
    by = {r.policy: r for r in results}
    if "lru" in by:
        for name in ("lrc", "cost"):
            if name in by:
                print_comparison("mean job makespan", "lru",
                                 by["lru"].mean_makespan, name,
                                 by[name].mean_makespan)
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    # Route the knobs through StarkConfig so the CLI rejects exactly what
    # the engine would (unknown policy, negative quota) with exit 2.
    from .engine.context import StarkConfig

    StarkConfig(scheduling_policy=args.scheduling_policy,
                tenant_quota_mb=args.tenant_quota_mb).validate_service()
    results = harness.run_tenant_fairness(
        num_tenants=args.tenants,
        zipf_s=args.zipf_s,
        burst_jobs=args.burst_jobs,
        tenant_quota_mb=args.tenant_quota_mb,
        seed=args.seed,
    )
    by_arm = {r.arm: r for r in results}
    print_table(
        "Multi-tenant service: compliant-tenant delay under an abusive burst",
        ["arm", "policy", "abuser", "p95 (ms)", "mean (ms)", "max (ms)",
         "jobs", "shed", "quota evict", "dedup", "SLO alerts"],
        [[r.arm, r.scheduling_policy, str(r.abuser_active),
          r.compliant_p95_delay * 1000, r.compliant_mean_delay * 1000,
          r.compliant_max_delay * 1000, r.completed_jobs, r.shed_jobs,
          r.quota_evictions, r.dedup_hits,
          f"{r.compliant_slo_alerts}+{r.slo_alerts - r.compliant_slo_alerts}"]
         for r in results],
        floatfmt="{:.2f}",
    )
    slo_target = by_arm["fair"].slo_target
    print(f"SLO alerts are compliant+abuser burn-rate fires against a "
          f"per-tenant p95 target of {slo_target * 1000:.1f} ms "
          f"(3x the no-abuser reference); the reference arm sets the "
          f"target and is not judged against it.")
    reference = by_arm["fair_no_abuser"]
    selected = by_arm.get(args.scheduling_policy, by_arm["fair"])
    print_comparison(
        "compliant p95 vs no-abuser reference",
        f"{selected.arm} (with abuser)", selected.compliant_p95_delay,
        "no-abuser reference", reference.compliant_p95_delay,
    )
    if by_arm["fair"].compliant_p95_delay > \
            2.0 * max(reference.compliant_p95_delay, 1e-9):
        print("FAIRNESS REGRESSION: fair-share p95 exceeded 2x the "
              "no-abuser reference")
        return 1
    return 0


# ---- canned traceable workloads ------------------------------------------------


def _workload_smoke() -> "StarkContext":
    """Cached RDD counted twice (misses then hits) plus one shuffle."""
    from .bench.configs import ClusterSpec, make_context

    context = make_context(
        "Stark-H", ClusterSpec(num_workers=4, cores_per_worker=2, seed=7))
    data = [(i % 40, i) for i in range(2000)]
    rdd = context.parallelize(data, num_partitions=8, name="smoke").cache()
    rdd.count()
    rdd.count()
    rdd.reduce_by_key(lambda a, b: a + b, name="smoke.reduce").count()
    return context


def _workload_cache_pressure() -> "StarkContext":
    """Several cached RDDs larger than aggregate store capacity, cycled
    repeatedly: capacity evictions, misses, and recomputation."""
    from .bench.configs import ClusterSpec, make_context

    context = make_context(
        "Spark-H",
        ClusterSpec(num_workers=2, cores_per_worker=2,
                    memory_per_worker=6e5, seed=11))
    rdds = []
    for r in range(4):
        data = [(i, i * r) for i in range(3000)]
        rdds.append(context.parallelize(
            data, num_partitions=4, name=f"pressure{r}").cache())
    for _ in range(3):
        for rdd in rdds:
            rdd.count()
    return context


def _workload_streaming() -> "StarkContext":
    """A co-located dataset collection with a short window: each step is
    shuffled into the namespace, cached and reported, expired steps are
    unpersisted, and one cogroup over the window runs per step."""
    from .bench.configs import ClusterSpec, make_context
    from .core.collection import DatasetCollection
    from .engine.partitioner import HashPartitioner

    context = make_context(
        "Stark-H", ClusterSpec(num_workers=4, cores_per_worker=2, seed=3))
    collection = DatasetCollection(context, HashPartitioner(8),
                                   namespace="ingest", window=3)
    for step in range(5):
        def gen(pid: int, step: int = step) -> list:
            return [((pid * 97 + i) % (1 << 16), step) for i in range(100)]

        collection.add(step, context.generated(
            gen, 8, read_cost="network", name=f"ingest{step}"))
        window = list(collection.steps.values())
        window[0].cogroup(*window[1:]).count()
    return context


def _workload_service() -> "StarkContext":
    """Three tenants on a DatasetService: registrations (one deduped),
    a branch, a drop, and async arrivals with one tenant bounded so
    admission sheds fire — every service event type in one run."""
    from .bench.configs import ClusterSpec, make_context
    from .service import DatasetService

    context = make_context(
        "Stark-H", ClusterSpec(num_workers=2, cores_per_worker=2, seed=13))
    svc = DatasetService(context)
    svc.create_tenant("alpha", weight=2.0)
    svc.create_tenant("beta", weight=1.0)
    svc.create_tenant("gamma", weight=1.0, max_pending_jobs=2)

    def make_rdd(source: int):
        def gen(pid: int, source: int = source) -> list:
            return [(pid * 500 + i, (i * 31 + source) % 97)
                    for i in range(200)]
        return (context.generated(gen, 4, read_cost="disk",
                                  name=f"svc-src{source}")
                .map(lambda kv: (kv[0], kv[1] + 1)))

    handles = {
        "alpha": svc.register_dataset("alpha", "ds-alpha", make_rdd(0)),
        "beta": svc.register_dataset("beta", "ds-beta", make_rdd(1)),
        # gamma files alpha's exact computation: registry dedup.
        "gamma": svc.register_dataset("gamma", "ds-gamma", make_rdd(0)),
    }
    svc.branch_dataset("beta", "ds-beta", "ds-beta-fork")
    svc.register_dataset("beta", "ds-scratch", make_rdd(2)).release()
    svc.drop_dataset("beta", "ds-scratch")

    def make_job(name: str) -> Callable[[float, int], float]:
        handle = handles[name]

        def job(t: float, i: int) -> float:
            context.run_job(handle.rdd, len, submit_time=t,
                            description=f"{name}-{i}")
            return context.metrics.last_job().finish_time

        return job

    svc.submit_arrivals("alpha", make_job("alpha"), [0.1, 0.4, 0.7])
    svc.submit_arrivals("beta", make_job("beta"), [0.2, 0.5])
    # gamma's burst exceeds max_pending_jobs=2: later arrivals shed.
    svc.submit_arrivals("gamma", make_job("gamma"),
                        [0.3 + 1e-3 * j for j in range(6)])
    svc.run()
    context.dataset_service = svc
    return context


def _workload_broker() -> "StarkContext":
    """Two tenants' structurally identical cached pipelines run as
    separate jobs under the cluster-wide cache broker — the second scan
    is served from the first's cached prefix — plus filler datasets that
    overflow the stores so the broker's global eviction/migration market
    fires."""
    from .bench.configs import ClusterSpec, make_context
    from .engine.context import StarkConfig

    context = make_context(
        "Stark-H",
        ClusterSpec(num_workers=3, cores_per_worker=2,
                    memory_per_worker=2.5e5, seed=19),
        stark_config=StarkConfig(cache_broker=True))

    def source(pid: int) -> list:
        return [(pid * 200 + i, i % 13) for i in range(200)]

    def tenant_scan():
        return (context.generated(source, 6, read_cost="network",
                                  name="broker-shared-scan")
                .map(lambda kv: (kv[0], kv[1] * 2))
                .cache())

    first = tenant_scan()
    first.count()
    second = tenant_scan()   # same structure, different RDD ids
    second.count()           # served from first's cached prefix
    for r in range(4):
        data = [(i, i * r) for i in range(2500)]
        context.parallelize(data, num_partitions=3,
                            name=f"broker-filler{r}").cache().count()
    second.count()
    return context


#: The canned SQL workload's queries: a scan-filter-aggregate, a
#: join + group-by (TPC-H Q3/Q5 in spirit), and a top-k — enough to
#: exercise pushdown, exchanges, and ordering on every run.
SQL_QUERIES: List[tuple] = [
    ("status_totals",
     "SELECT o_status, COUNT(*) AS orders, SUM(o_totalprice) AS total "
     "FROM orders WHERE o_totalprice > 100 GROUP BY o_status "
     "ORDER BY o_status"),
    ("revenue_by_flag",
     "SELECT l_returnflag, SUM(l_extendedprice) AS revenue, "
     "AVG(l_quantity) AS avg_qty FROM lineitem "
     "JOIN orders ON l_orderkey = o_orderkey "
     "WHERE o_status = 'O' GROUP BY l_returnflag ORDER BY revenue DESC"),
    ("top_orders",
     "SELECT o_orderkey, o_totalprice FROM orders "
     "WHERE o_status = 'F' ORDER BY o_totalprice DESC LIMIT 10"),
]


def _sql_session(num_workers: int = 4, seed: int = 17):
    """A context + SQLSession with the canned orders/lineitem tables."""
    from .bench.configs import ClusterSpec, make_context
    from .columnar.datagen import register_tpch_tables
    from .sql import SQLSession

    context = make_context(
        "Stark-H",
        ClusterSpec(num_workers=num_workers, cores_per_worker=2, seed=seed))
    session = SQLSession(context)
    register_tpch_tables(session, seed=seed)
    return context, session


def _workload_sql() -> "StarkContext":
    """The canned SQL workload under tracing: every query plans, runs,
    and posts QueryPlanned/QueryCompleted events the reconciliation
    table checks against the session's counters."""
    context, session = _sql_session()
    for _, text in SQL_QUERIES:
        session.sql(text).collect()
    return context


WORKLOADS: Dict[str, Callable[[], "StarkContext"]] = {
    "smoke": _workload_smoke,
    "cache-pressure": _workload_cache_pressure,
    "streaming": _workload_streaming,
    "service": _workload_service,
    "sql": _workload_sql,
    "broker": _workload_broker,
}


def _run_traced_workload(name: str, listeners: Sequence) -> List["StarkContext"]:
    """Run a canned workload with ``listeners`` subscribed to every
    context it creates; returns those contexts for reconciliation."""
    contexts: List["StarkContext"] = []

    def attach(context: "StarkContext") -> None:
        contexts.append(context)
        for listener in listeners:
            context.event_bus.subscribe(listener)

    obs.add_context_observer(attach)
    try:
        WORKLOADS[name]()
    finally:
        obs.remove_context_observer(attach)
    return contexts


def _reconcile(contexts: Sequence["StarkContext"],
               collector: obs.EventCollector) -> List[List]:
    """Rows of [quantity, from events, from metrics, ok] — the event
    stream must agree exactly with ``MetricsCollector`` totals."""
    counts = collector.counts_by_type()
    tasks = hits = misses = evictions = 0
    for context in contexts:
        stats = context.metrics.cache_stats()
        tasks += context.metrics.total_tasks()
        hits += int(stats["hits"])
        misses += int(stats["misses"])
        evictions += int(stats["evictions"])
    capacity_evictions = sum(
        1 for e in collector.of_type(obs.BlockEvicted)
        if e.reason == "capacity")
    checks = [
        ("tasks", counts.get("TaskEnd", 0), tasks),
        ("cache hits", counts.get("CacheHit", 0), hits),
        ("cache misses", counts.get("CacheMiss", 0), misses),
        ("capacity evictions", capacity_evictions, evictions),
    ]

    # Service-layer events reconcile against the DatasetService's own
    # unconditional counters (kept whether or not the bus is active).
    services = [c.dataset_service for c in contexts
                if getattr(c, "dataset_service", None) is not None]
    if services:
        completed = sum(len(t.result.results)
                        for svc in services for t in svc.tenants.values())
        shed = sum(t.result.shed_jobs
                   for svc in services for t in svc.tenants.values())
        checks += [
            ("tenant jobs submitted", counts.get("TenantJobSubmitted", 0),
             completed + shed),
            ("tenant jobs admitted", counts.get("TenantJobAdmitted", 0),
             completed),
            ("tenant jobs shed", counts.get("TenantJobShed", 0), shed),
            ("tenant jobs completed", counts.get("TenantJobCompleted", 0),
             completed),
            ("datasets registered", counts.get("DatasetRegistered", 0),
             sum(s.registry.registered_versions for s in services)),
            ("datasets branched", counts.get("DatasetBranched", 0),
             sum(s.registry.branched_versions for s in services)),
            ("datasets dropped", counts.get("DatasetDropped", 0),
             sum(s.registry.dropped_versions for s in services)),
            ("pool reweights", counts.get("PoolWeightsUpdated", 0),
             sum(s.pool_updates for s in services)),
        ]

    # SQL plan events reconcile against the SQLSession's unconditional
    # counters, plus the internal identity planned = completed + failed.
    sessions = [c.sql_session for c in contexts
                if getattr(c, "sql_session", None) is not None]
    if sessions:
        planned = sum(s.queries_planned for s in sessions)
        completed = sum(s.queries_completed for s in sessions)
        failed = sum(s.queries_failed for s in sessions)
        checks += [
            ("queries planned", counts.get("QueryPlanned", 0), planned),
            ("queries completed", counts.get("QueryCompleted", 0),
             completed),
            ("queries failed", counts.get("QueryFailed", 0), failed),
            ("queries planned = completed + failed",
             counts.get("QueryPlanned", 0),
             counts.get("QueryCompleted", 0)
             + counts.get("QueryFailed", 0)),
        ]

    # Broker rows: the global ledger must account for exactly the bytes
    # resident in the block stores (both sides ``math.fsum``, so exact),
    # and every broker action must have posted its event.  Cross-job
    # hits combine lineage-prefix serves with registry fingerprint
    # dedup — the two sharing mechanisms.
    brokers = [c for c in contexts
               if getattr(c, "cache_broker", None) is not None]
    if brokers:
        ledger = math.fsum(c.cache_broker.accounted_bytes()
                           for c in brokers)
        resident = math.fsum(
            store.peek(bid).size_bytes
            for c in brokers
            for _, store in sorted(c.block_manager_master.stores.items())
            for bid in store.block_ids())
        broker_evicted = sum(1 for e in collector.of_type(obs.BlockEvicted)
                             if e.reason == "broker")
        dedup_events = sum(
            1 for e in collector.of_type(obs.DatasetRegistered)
            if e.deduped)
        checks += [
            ("broker ledger bytes = resident bytes", ledger, resident),
            ("broker evictions", broker_evicted,
             sum(c.cache_broker.broker_evictions for c in brokers)),
            ("broker migrations", counts.get("BrokerMigrated", 0),
             sum(c.cache_broker.broker_migrations for c in brokers)),
            ("cross-job hits",
             counts.get("BrokerPrefixHit", 0) + dedup_events,
             sum(c.cache_broker.prefix_hits for c in brokers)
             + sum(s.registry.dedup_hits for s in services)),
        ]

    rows = []
    for label, from_events, from_metrics in checks:
        rows.append([label, from_events, from_metrics,
                     "ok" if from_events == from_metrics else "MISMATCH"])
    return rows


def _cmd_trace(args: argparse.Namespace) -> int:
    out = Path(args.out)
    events_path = (Path(args.events_out) if args.events_out
                   else out.with_name(out.stem + ".events.jsonl"))
    collector = obs.EventCollector()
    sampler = obs.UtilizationSampler()
    tracer = obs.ChromeTraceExporter()
    with obs.JsonlEventLog(events_path) as event_log:
        contexts = _run_traced_workload(
            args.workload, [collector, sampler, tracer, event_log])
    if contexts:
        # Close the sampler's step timelines at the clock frontier so the
        # final partial interval counts.
        sampler.flush(max(c.now for c in contexts))
    tracer.export(out)
    print(f"trace:     {out} ({len(collector.of_type(obs.TaskEnd))} task "
          f"spans; load in https://ui.perfetto.dev)")
    print(f"event log: {events_path} ({event_log.events_written} events)")

    failures = 0
    problems = obs.validate_event_log(events_path)
    for problem in problems:
        print(f"schema: {problem}")
        failures += 1
    violations = obs.check_event_invariants(collector.events)
    for violation in violations:
        print(f"invariant: {violation}")
        failures += 1

    rows = _reconcile(contexts, collector)
    print_table("Events vs. MetricsCollector",
                ["quantity", "events", "metrics", "check"], rows)
    failures += sum(1 for row in rows if row[3] != "ok")

    lanes: Dict[str, List] = {}
    for worker_id, assigned in tracer.slot_assignment().items():
        for task, slot in assigned:
            lanes.setdefault(f"w{worker_id}/s{slot}", []).append(
                (task.time - task.duration, task.time))
    if lanes:
        print("\ntask timeline (one lane per worker slot):")
        print(timeline_chart(lanes))
    occupancy = sampler.slot_occupancy()
    if occupancy:
        print("\ncluster slot occupancy:")
        print(utilization_chart(occupancy, unit=" slots"))
    cache = sampler.cache_bytes()
    if cache:
        print("\nresident cache bytes:")
        print(utilization_chart(cache, unit="B"))
    blocks = sampler.cache_blocks()
    if blocks:
        print("\nresident cache blocks:")
        print(utilization_chart(blocks, unit=" blocks"))
    if failures:
        print(f"\n{failures} problem(s) found")
    return 1 if failures else 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    collector = obs.EventCollector()
    tracer = obs.ChromeTraceExporter()
    contexts = _run_traced_workload(args.workload, [collector, tracer])
    locality_wait = (contexts[0].config.locality_wait if contexts else 0.0)
    reports = obs.critical_paths(collector.events,
                                 locality_wait=locality_wait)
    if args.job is not None:
        reports = [r for r in reports if r.job_id == args.job]
        if not reports:
            print(f"error: no job {args.job} in workload "
                  f"{args.workload!r}", file=sys.stderr)
            return 2

    failures = 0
    for report in reports:
        problems = report.problems()
        failures += len(problems)
        blame = report.blame()
        top = sorted(blame.items(), key=lambda kv: -kv[1])[:args.top]
        label = report.description or f"job {report.job_id}"
        print(f"\njob {report.job_id} ({label}): makespan "
              f"{report.makespan * 1000:.3f} ms over "
              f"{len(report.segments)} critical segments; dominated by "
              + ", ".join(f"{c} {v / max(report.makespan, 1e-12):.0%}"
                          for c, v in top if v > 0))
        print(obs.ascii_blame_chart(report))
        for problem in problems:
            print(f"invariant: {problem}")

    if args.out:
        # The track's thread-name metadata comes once, with the first job.
        annotations = [
            event for index, report in enumerate(reports)
            for event in obs.critical_span_trace_events(report)
            if index == 0 or event.get("ph") != "M"]
        out = obs.write_trace(chain(tracer.records(), annotations), args.out)
        print(f"\nannotated trace: {out} (critical-path track on the "
              f"driver process; load in https://ui.perfetto.dev)")
    if failures:
        print(f"\n{failures} invariant violation(s)")
    return 1 if failures else 0


def _cmd_sql(args: argparse.Namespace) -> int:
    """Run SQL against the canned orders/lineitem tables: either one
    ad-hoc query (``--query``) or the canned workload's query set."""
    context, session = _sql_session(num_workers=args.workers,
                                    seed=args.seed)
    queries = ([("adhoc", args.query)] if args.query else SQL_QUERIES)
    for name, text in queries:
        print(f"\n-- {name}\n{text}")
        df = session.sql(text)
        if args.explain:
            print()
            print(df.explain())
        rows = df.collect()
        shown = rows[:args.rows]
        print_table(
            f"{name} ({len(rows)} row(s)"
            + (f", first {len(shown)} shown" if len(shown) < len(rows)
               else "") + ")",
            [col_name for col_name, _ in df.schema],
            [list(row) for row in shown],
            floatfmt="{:.2f}",
        )
    metrics = context.metrics
    print(f"\n{session.queries_completed} quer"
          f"{'y' if session.queries_completed == 1 else 'ies'} in "
          f"{context.now * 1000:.3f} simulated ms "
          f"({metrics.total_tasks()} tasks)")
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    collector = obs.EventCollector()
    _run_traced_workload(args.workload, [collector])
    shown = collector.tail(args.tail) if args.tail else collector.events
    skipped = len(collector.events) - len(shown)
    if skipped > 0:
        print(f"... {skipped} earlier events "
              f"(--tail {len(collector.events)} to see all)")
    for event in shown:
        print(obs.format_event(event))
    return 0


COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "fig01": _cmd_fig01,
    "fig07": _cmd_fig07,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "skew": _cmd_skew,       # Figs 13 + 14 + 15 share one run
    "fig17": _cmd_fig17,
    "fig18": _cmd_fig18,
    "fig19": _cmd_fig19,
    "fig20": _cmd_fig20,
    "cache": _cmd_cache,
    "service": _cmd_service,
    "sql": _cmd_sql,
    "trace": _cmd_trace,
    "events": _cmd_events,
    "critical-path": _cmd_critical_path,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Stark paper's evaluation figures.",
    )
    parser.add_argument(
        "--cache-policy", choices=POLICY_NAMES, default=None,
        help="block-store eviction policy every experiment runs under "
             "(default: lru)",
    )
    parser.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="write events-N.jsonl + trace-N.json for every context the "
             "command creates into DIR",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("all", help="run every experiment (several minutes)")

    p = sub.add_parser("fig01", help="Fig 1(b): locality benefit")
    p.add_argument("--file-mb", type=float, default=700.0)

    p = sub.add_parser("fig07", help="Fig 7: partition count trade-off")
    p.add_argument("--partitions", type=int, nargs="+",
                   default=[1, 4, 16, 64, 256, 1024, 4096])

    for name, help_text in (("fig11", "Fig 11: co-locality job delay"),
                            ("fig12", "Fig 12: task delay + GC")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--rdd-counts", type=int, nargs="+",
                       default=[1, 2, 3, 4, 5, 6])

    sub.add_parser("skew", help="Figs 13/14/15: skewed distributions")

    p = sub.add_parser("fig17", help="Fig 17: checkpoint size estimation")
    p.add_argument("--steps", type=int, default=4)
    p = sub.add_parser("fig18", help="Fig 18: checkpoint totals per policy")
    p.add_argument("--steps", type=int, default=10)

    p = sub.add_parser("fig19", help="Fig 19: throughput and delay")
    p.add_argument("--rates", type=float, nargs="+",
                   default=[2, 5, 10, 20, 40, 80, 160, 240])

    p = sub.add_parser("fig20", help="Fig 20: delay over a replayed day")
    p.add_argument("--hours", type=int, default=24)
    p.add_argument("--jobs-per-step", type=int, default=5)

    p = sub.add_parser(
        "service",
        help="multi-tenant dataset service: fair-share pools + per-tenant "
             "quotas vs FIFO under an abusive tenant")
    p.add_argument("--tenants", type=int, default=6,
                   help="tenant count; the last one is the abuser")
    p.add_argument("--zipf-s", type=float, default=1.0,
                   help="Zipf exponent for tenant rates and pool weights")
    p.add_argument("--scheduling-policy", default="fair",
                   help="arm to headline in the comparison (validated "
                        "through StarkConfig: fifo or fair)")
    p.add_argument("--tenant-quota-mb", type=float, default=16.0,
                   help="per-tenant cache quota in MB (0 = unlimited)")
    p.add_argument("--burst-jobs", type=int, default=400,
                   help="size of the abuser's instantaneous burst")
    p.add_argument("--seed", type=int, default=23)

    p = sub.add_parser("cache", help="compare block-store eviction policies")
    p.add_argument("--policies", nargs="+", choices=POLICY_NAMES,
                   default=list(POLICY_NAMES))
    p.add_argument("--iterations", type=int, default=12)
    p.add_argument("--broker", action="store_true",
                   help="run the canned broker workload and print the "
                        "cluster-wide cache broker's state instead of the "
                        "policy comparison")
    p.add_argument("--top", type=int, default=8, metavar="N",
                   help="blocks shown in the broker's top-value table "
                        "(with --broker)")

    p = sub.add_parser(
        "trace", help="run a canned workload under full tracing; export a "
                      "Perfetto trace + JSONL event log")
    p.add_argument("workload", nargs="?", choices=sorted(WORKLOADS),
                   default="smoke")
    p.add_argument("--out", default="trace.json", metavar="FILE",
                   help="Chrome/Perfetto trace output path "
                        "(default: trace.json)")
    p.add_argument("--events-out", default=None, metavar="FILE",
                   help="JSONL event log path "
                        "(default: <out stem>.events.jsonl)")

    p = sub.add_parser(
        "sql", help="run SQL over the canned columnar orders/lineitem "
                    "tables (DataFrame plans lowered onto the engine)")
    p.add_argument("--query", default=None, metavar="SQL",
                   help="one ad-hoc SELECT statement (default: run the "
                        "canned query set)")
    p.add_argument("--explain", action="store_true",
                   help="print logical + optimized plans and rewrite "
                        "stats per query")
    p.add_argument("--rows", type=int, default=10, metavar="N",
                   help="result rows shown per query")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--seed", type=int, default=17)

    p = sub.add_parser("events",
                       help="run a canned workload and print its event "
                            "stream")
    p.add_argument("workload", nargs="?", choices=sorted(WORKLOADS),
                   default="smoke")
    p.add_argument("--tail", type=int, default=40, metavar="N",
                   help="show only the last N events (0 = all)")

    p = sub.add_parser(
        "critical-path",
        help="run a canned workload and attribute each job's makespan to "
             "named wait categories along its critical path")
    p.add_argument("workload", nargs="?", choices=sorted(WORKLOADS),
                   default="smoke")
    p.add_argument("--job", type=int, default=None, metavar="ID",
                   help="only analyse this job id")
    p.add_argument("--top", type=int, default=3, metavar="N",
                   help="categories named in the per-job headline")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write a Perfetto trace with the critical path "
                        "annotated as its own driver track")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "all":
        defaults = build_parser()
        status = 0
        for name in COMMANDS:
            print(f"\n### {name} ###")
            sub_args = defaults.parse_args([name])
            status = max(status, COMMANDS[name](sub_args) or 0)
        return status
    return COMMANDS[args.command](args) or 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_policy is not None:
        set_default_policy(args.cache_policy)
    if args.command in (None, "list"):
        print("available experiments:")
        for name in COMMANDS:
            print(f"  {name}")
        print("  all")
        return 0
    try:
        if args.trace_dir is not None:
            with obs.observe_to_dir(args.trace_dir) as out:
                status = _dispatch(args)
            print(f"\nobservability artifacts written to {out}/",
                  file=sys.stderr)
            return status
        return _dispatch(args)
    except ValueError as exc:
        # Bad knob values (e.g. a negative --tenant-quota-mb) are user
        # errors, not crashes.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
