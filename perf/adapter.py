"""The benchmark's only door into the program under test.

Every ``repro`` import of ``perf/`` lives in this file and uses the
library surface only (``StarkContext``/``StarkConfig``/``Cluster``,
``repro.apps``-level building blocks, ``repro.workloads``,
``repro.service``, ``repro.sql``, ``repro.columnar``,
``repro.cluster.queueing``, ``repro.obs``) — never ``repro.bench`` or
``repro.cli``, which ROADMAP item 4 will replace.

A *workload* here is a class with three steps:

* ``setup()`` generates the inputs from the seed and computes, in plain
  Python over those inputs, the expected result of every job;
* ``run_pass(user)`` executes the whole workload once on a fresh
  ``StarkContext`` and returns a :class:`PassResult`; every closure the
  benchmark hands to the engine as a *job* goes through ``user`` so the
  traced pass can attribute its body to ``other`` instead of to the
  layer that happens to call it;
* ``verify(result)`` compares the pass's job results with the references
  and returns ``{job id: reason}`` for every job that is wrong.

Inputs are memoised in set-up and the generators handed to the engine
only index the memo (:class:`Memo`), so a pass measures the program and
not ``random``.
"""

from __future__ import annotations

import bisect
import importlib
import json
import logging
import math
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

PERF_DIR = Path(__file__).resolve().parent
OUT_DIR = PERF_DIR / "out"
_SRC = PERF_DIR.parent / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"the program under test is not at {_SRC / 'repro'}")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import (  # noqa: E402
    Cluster,
    CostModel,
    ExtendablePartitioner,
    FailureInjector,
    RecordSizer,
    StarkConfig,
    StarkContext,
    make_policy,
)
from repro.cluster.cost_model import SimStr  # noqa: E402
from repro.cluster.queueing import JobDriver, nearest_rank  # noqa: E402
from repro.columnar import ColumnarBatch  # noqa: E402
from repro.columnar.datagen import (  # noqa: E402
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    lineitem_rows,
    orders_rows,
)
from repro.engine.block_manager import Block  # noqa: E402
from repro.obs import (  # noqa: E402
    ChromeTraceExporter,
    EventCollector,
    JsonlEventLog,
    UtilizationSampler,
    build_spans,
    check_event_invariants,
    critical_paths,
)
from repro.service import DatasetService  # noqa: E402
from repro.sql import SQLSession  # noqa: E402
from repro.workloads import (  # noqa: E402
    MergedTaxiTwitterTrace,
    TaxiTrace,
    TaxiTraceConfig,
    TwitterConfig,
)

# The engine logs injected worker kills at WARNING; they are part of the
# stream workload, not news.
logging.getLogger("stark").setLevel(logging.ERROR)

UserWrap = Callable[[Callable], Callable]


def import_module(name: str):
    """Resolve a ``repro`` module by name for the tracer's boundary table."""
    return importlib.import_module(name)


def identity(fn: Callable) -> Callable:
    return fn


class Memo:
    """A partition generator that indexes set-up's memo.

    A callable *object* rather than a closure: the engine fingerprints
    lineage through ``repr`` of closure cells, and a closure over the
    memo would ``repr`` every record at each job submission.  Two memos
    with the same label describe the same computation, which is how two
    tenants file structurally identical pipelines.
    """

    __slots__ = ("label", "parts")

    def __init__(self, label: str, parts: Sequence) -> None:
        self.label = label
        self.parts = parts

    def __call__(self, pid: int):
        return self.parts[pid]

    def __repr__(self) -> str:
        return self.label


@dataclass
class PassResult:
    """What one complete execution of a workload produced."""

    #: job id -> the value the job returned.
    results: Dict[str, Any]
    #: simulated finish - arrival of every completed job.
    delays: List[float]
    #: simulated clock from first submit to last finish.
    sim_makespan: float
    #: jobs offered to the system.
    attempted: int
    #: job id -> reason, for jobs that raised or were shed.
    failed: Dict[str, str] = field(default_factory=dict)
    #: counts read from the program's own counters; they repeat exactly.
    counts: Dict[str, float] = field(default_factory=dict)
    #: files the pass wrote that ``verify`` still has to look at.
    artifacts: Dict[str, Any] = field(default_factory=dict)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def engine_counts(sc: StarkContext) -> Dict[str, float]:
    """Work counts every workload shares, from the context's counters."""
    jobs = sc.metrics.jobs
    cache = sc.metrics.cache_stats()
    admission = sc.cache_manager.admission
    quotas = sc.cache_manager.quotas
    refused = admission.rejected + (quotas.quota_rejections if quotas else 0)
    local = sc.metrics.locality_fractions()
    counts = {
        "engine.dag.jobs": float(len(jobs)),
        "engine.dag.stages": float(sum(j.num_stages for j in jobs)),
        "engine.tasksched.tasks": float(sc.metrics.total_tasks()),
        "engine.tasksched.local_ratio":
            local.get("PROCESS_LOCAL", 0.0) + local.get("NODE_LOCAL", 0.0),
        "engine.compute.shuffle_bytes": float(sum(
            t.shuffle_bytes_fetched for j in jobs for t in j.tasks)),
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.hit_ratio": cache["hit_rate"],
        "cache.evictions": cache["evictions"],
        "cache.recomputed_partitions": cache["recomputed_partitions"],
        "cache.admit_ratio": _ratio(admission.accepted,
                                    admission.accepted + refused),
    }
    broker = sc.cache_broker
    if broker is not None:
        counts["cache.broker.evictions"] = float(broker.broker_evictions)
        counts["cache.broker.migrations"] = float(broker.broker_migrations)
        counts["cache.broker.prefix_hits"] = float(broker.prefix_hits)
        counts["cache.broker.prefix_hit_ratio"] = _ratio(
            broker.prefix_hits, broker.prefix_hits + broker.prefix_misses)
    return counts


def _apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Largest-remainder split of ``total`` in proportion to ``weights``."""
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    base = [int(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: (base[i] - raw[i], i))
    for i in by_remainder[:total - sum(base)]:
        base[i] += 1
    return base


def _uniform_arrivals(rng: random.Random, n: int, start: float,
                      horizon: float) -> List[float]:
    """``n`` sorted arrival times of a Poisson process on ``[start,
    start + horizon)``, conditioned on exactly ``n`` arrivals — so the
    offered load and the run length are the same for every seed."""
    return sorted(start + rng.random() * horizon for _ in range(n))


def _jittered_arrivals(rng: random.Random, n: int, horizon: float,
                       slots: float = 3.0) -> List[float]:
    """An open-loop schedule of ``n`` arrivals over ``[0, horizon)``: the
    ``i``-th is due in slot ``i`` and moved by up to ``slots`` slots
    either way.  Arrivals bunch locally (queues form) but every stretch
    of the run offers the same load; with free Poisson arrivals the 95th
    percentile delay of 900 jobs moved by 12-20 % from seed to seed."""
    width = horizon / n
    return sorted(
        min(max(i + rng.uniform(-slots, slots + 1.0), 0.0), n - 1e-9) * width
        for i in range(n))


# ---------------------------------------------------------------------------
# stream_taxi — paper Fig 19/20 on Stark-E
# ---------------------------------------------------------------------------

#: One synthetic stream event stands in for this many real ~200 B events
#: (the scaling the paper-figure drivers use; CPU rates scale with it).
STREAM_EVENT_SCALE = 250


class _BucketedTaxi(TaxiTrace):
    """``TaxiTrace`` that generates a step once and buckets it by the
    shared partitioner, instead of regenerating the whole step for each
    of its 64 fine partitions.  Partition contents are identical."""

    def __init__(self, config: TaxiTraceConfig, partitioner) -> None:
        super().__init__(config)
        self._partitioner = partitioner
        self._steps: Dict[int, List[list]] = {}

    def events_for_step_partition(self, step, pid, num_partitions,
                                  partitioner=None):
        buckets = self._steps.get(step)
        if buckets is None:
            route = self._partitioner.get_partition
            buckets = [[] for _ in range(self._partitioner.num_partitions)]
            for record in super().events_for_step_partition(step, 0, 1, None):
                buckets[route(record[0])].append(record)
            self._steps[step] = buckets
        return buckets[pid]


def _events_in_region(records: list) -> int:
    """Action of a cogroup region query: events under the surviving keys."""
    return sum(len(group) for _, groups in records for group in groups)


class StreamTaxi:
    """Merged taxi+twitter steps with diurnal volume on Stark-E.

    Open loop: step ``s`` is ingested at simulated time ``s * interval``
    and its region queries arrive as a seeded Poisson process inside the
    step's interval.  One worker is killed at two thirds of the run and
    restarted two steps later.
    """

    name = "stream_taxi"
    groups, fine_per_group = 4, 16
    workers, cores, memory = 8, 2, 1.4e9
    window = 6
    #: How many steps each of a step's eight queries cogroups.
    spans = (2, 3, 4, 2, 3, 2, 3, 4)
    interval = 4.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.steps = max(6, round(36 * scale))
        self.events = max(60, round(240 * min(1.0, scale * 2)))
        self.kill_step = self.steps * 2 // 3

    def setup(self) -> None:
        seed = self.seed
        config = TaxiTraceConfig(
            base_events_per_step=self.events, peak_to_nadir=2.5,
            steps_per_day=self.steps,
            record_bytes=200 * STREAM_EVENT_SCALE, seed=seed)
        key_space = TaxiTrace(config).encoder.key_space()
        self.partitioner = ExtendablePartitioner.over_key_range(
            0, key_space, self.groups, self.fine_per_group)
        n = self.partitioner.num_partitions
        taxi = _BucketedTaxi(config, self.partitioner)
        trace = MergedTaxiTwitterTrace(taxi, TwitterConfig(seed=seed + 1))
        self.step_memo = [
            Memo(f"step{s}", [
                trace.records_for_step_partition(s, pid, n, self.partitioner)
                for pid in range(n)])
            for s in range(self.steps)]
        sorted_keys = [
            sorted(key for part in memo.parts for key, _ in part)
            for memo in self.step_memo]

        rng = random.Random(seed * 7919 + 3)
        self.victim = rng.randrange(self.workers)
        #: per step: [(arrival, first step, span, lo, hi)]
        self.queries: List[List[Tuple[float, int, int, int, int]]] = []
        self.expected: Dict[str, int] = {}
        for s in range(self.steps):
            self.expected[f"ingest{s}"] = len(sorted_keys[s])
            live = list(range(max(0, s - self.window + 1), s + 1))
            arrivals = _uniform_arrivals(
                rng, len(self.spans), s * self.interval, self.interval)
            step_queries = []
            for q, arrival in enumerate(arrivals):
                # Which steps a query cogroups is part of the workload's
                # shape, so the volume a pass moves is the same for
                # every seed; the seed picks the region and the time.
                span = min(self.spans[(q + s) % len(self.spans)], len(live))
                first = live[(3 * q + s) % (len(live) - span + 1)]
                lo, hi = taxi.random_region_query(rng)
                step_queries.append((arrival, first, span, lo, hi))
                self.expected[f"q{s}.{q}"] = sum(
                    bisect.bisect_right(sorted_keys[t], hi)
                    - bisect.bisect_left(sorted_keys[t], lo)
                    for t in range(first, first + span))
            self.queries.append(step_queries)

    def run_pass(self, user: UserWrap = identity) -> PassResult:
        step_bytes = self.events * 2 * 200 * STREAM_EVENT_SCALE
        config = StarkConfig(
            max_group_mem_size=step_bytes * self.window / 8,
            min_group_mem_size=step_bytes * self.window / 32,
            group_size_window=self.window)
        cluster = Cluster(
            num_workers=self.workers, cores_per_worker=self.cores,
            memory_per_worker=self.memory, seed=self.seed,
            cost_model=CostModel(
                cpu_per_record=2.0e-7 * STREAM_EVENT_SCALE,
                shuffle_cpu_per_record=4.0e-7 * STREAM_EVENT_SCALE))
        sc = StarkContext(cluster=cluster, config=config)
        driver = JobDriver(sc, seed=self.seed)
        injector = FailureInjector(sc)
        partitioner = self.partitioner
        live: Dict[int, Any] = {}
        results: Dict[str, Any] = {}
        failed: Dict[str, str] = {}
        delays: List[float] = []

        def guarded(job_id: str, body: Callable[[float], Any]):
            def job(arrival: float, index: int) -> float:
                try:
                    results[job_id] = body(arrival)
                except Exception as exc:  # a job that raises is a failed job
                    failed[job_id] = f"raised {exc!r}"
                    return max(arrival, sc.now)
                return sc.metrics.last_job().finish_time
            return user(job)

        def ingest(step: int):
            def body(arrival: float) -> int:
                base = sc.generated(
                    self.step_memo[step], partitioner.num_partitions,
                    partitioner=partitioner, read_cost="network",
                    name=f"step{step}")
                rdd = base.locality_partition_by(partitioner, "stream").cache()
                counts = sc.run_job(rdd, len, description=f"ingest{step}",
                                    submit_time=arrival)
                sc.group_manager.report_rdd(rdd)
                live[step] = rdd
                for old in [s for s in live if s <= step - self.window]:
                    live.pop(old).unpersist()
                return sum(counts)
            return guarded(f"ingest{step}", body)

        def query(step: int, q: int, first: int, span: int, lo: int, hi: int):
            def body(arrival: float) -> int:
                chosen = [live[s] for s in range(first, first + span)]
                if span == 1:
                    region = chosen[0].filter(lambda kv: lo <= kv[0] <= hi)
                    action = len
                else:
                    region = chosen[0].cogroup(*chosen[1:]).filter(
                        lambda kv: lo <= kv[0] <= hi)
                    action = _events_in_region
                return sum(sc.run_job(region, action,
                                      description=f"q{step}.{q}",
                                      submit_time=arrival))
            return guarded(f"q{step}.{q}", body)

        for step in range(self.steps):
            if step == self.kill_step:
                injector.kill_worker(self.victim)
                sc.locality_manager.remove_executor(self.victim)
                sc.group_manager.remove_executor(self.victim)
            elif step == self.kill_step + 2:
                injector.restart_worker(self.victim)
            load = driver.run_arrivals(ingest(step), [step * self.interval])
            delays.extend(r.delay for r in load.results)
            for q, (arrival, first, span, lo, hi) in enumerate(
                    self.queries[step]):
                load = driver.run_arrivals(
                    query(step, q, first, span, lo, hi), [arrival])
                delays.extend(r.delay for r in load.results)

        counts = engine_counts(sc)
        groups = sc.group_manager.stats("stream")
        counts["core.groups.splits"] = float(groups["splits"])
        counts["core.groups.merges"] = float(groups["merges"])
        return PassResult(
            results=results, delays=delays, sim_makespan=sc.now,
            attempted=len(self.expected), failed=failed, counts=counts)

    def verify(self, result: PassResult) -> Dict[str, str]:
        return _compare(self.expected, result)


def _compare(expected: Dict[str, Any], result: PassResult,
             equal: Callable[[Any, Any], bool] = lambda a, b: a == b,
             ) -> Dict[str, str]:
    """Jobs that failed outright plus jobs whose value is not the
    reference's, by job id."""
    wrong = dict(result.failed)
    for job_id, want in expected.items():
        if job_id in wrong:
            continue
        if job_id not in result.results:
            wrong[job_id] = "no result"
        elif not equal(result.results[job_id], want):
            wrong[job_id] = (f"returned {_short(result.results[job_id])}, "
                             f"reference {_short(want)}")
    return wrong


def _short(value: Any, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


# ---------------------------------------------------------------------------
# service_cache_churn / explain_service — the multi-tenant dataset service
# ---------------------------------------------------------------------------

def _rekey(kv):
    return (kv[0] + 1, kv[1])


class ServiceCacheChurn:
    """Zipf-weighted tenants reading Pareto-popular registered datasets
    through the dataset service, with the cache broker, LRC, fair-share
    pools and per-tenant quotas all on and a working set several times
    the cache.

    The request *profile* (how often each tenant asks for each dataset,
    and at roughly what spacing) and the partition sizes are the
    workload's definition; the seed jitters request positions and arrival
    times and fills the records.  That keeps hit ratio and eviction
    counts — and with them host time — from depending on which seed is
    run.
    """

    name = "service_cache_churn"
    tenants, datasets, partitions = 6, 30, 8
    workers, cores = 8, 2
    #: Records are tiny on the host and large in the model, so a miss
    #: costs simulated disk time and cache decisions reach the delays.
    record_sim_bytes = 20_000
    memory = 2.0e8
    quota_mb = 200.0
    popularity_exponent = 1.6
    arrival_rate = 50.0
    #: Request positions move by up to this many jobs with the seed.
    jitter = 20.0
    base_jobs = 1200
    listeners = False

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.jobs = max(60, round(self.base_jobs * scale))

    # -- inputs ---------------------------------------------------------------

    def setup(self) -> None:
        rng = random.Random(self.seed)
        # How many records each partition holds is the workload's shape,
        # not the seed's: block sizes decide what the cache can keep, and
        # drawn per seed they moved the hit ratio between 0.49 and 0.56
        # and host time by 20 %.
        shape = random.Random(0)
        payload = SimStr("x", sim_size=self.record_sim_bytes)
        shared = self.tenants - 1  # files the pipelines of tenant 0
        self.sources: Dict[Tuple[int, int], Memo] = {}
        for tenant in range(self.tenants - 1):
            for dataset in range(self.datasets):
                parts = [
                    [(rng.randrange(1 << 30), payload)
                     for _ in range(shape.randint(50, 70))]
                    for _ in range(self.partitions)]
                self.sources[(tenant, dataset)] = Memo(
                    f"ds{tenant}.{dataset}", parts)
        for dataset in range(self.datasets):
            self.sources[(shared, dataset)] = self.sources[(0, dataset)]

        self.weights = [1.0 / (k + 1) for k in range(self.tenants)]
        popularity = [1.0 / (d + 1) ** self.popularity_exponent
                      for d in range(self.datasets)]
        requests = []
        stream = 0
        for tenant, tenant_jobs in enumerate(
                _apportion(self.jobs, self.weights)):
            for dataset, n in enumerate(_apportion(tenant_jobs, popularity)):
                stream += 1
                phase = (stream * 0.6180339887498949) % 1.0
                for i in range(n):
                    position = ((i + phase) / n * self.jobs
                                + rng.uniform(-self.jitter, self.jitter))
                    # Every tenth read of a dataset is ad hoc: the tenant
                    # rebuilds the pipeline instead of using its handle,
                    # which only lineage-prefix sharing can serve.
                    requests.append((position, tenant, dataset, i % 10 == 9))
        requests.sort()
        arrivals = _jittered_arrivals(
            rng, self.jobs, self.jobs / self.arrival_rate)
        self.requests = [
            (arrival, tenant, dataset, ad_hoc)
            for arrival, (_, tenant, dataset, ad_hoc)
            in zip(arrivals, requests)]
        self.expected = {
            f"j{j}": [len(part)
                      for part in self.sources[(tenant, dataset)].parts]
            for j, (_, tenant, dataset, _) in enumerate(self.requests)}

    # -- one pass -------------------------------------------------------------

    def run_pass(self, user: UserWrap = identity) -> PassResult:
        config = StarkConfig(
            locality_enabled=False, mcf_enabled=False,
            replication_enabled=False,
            cache_broker=True, cache_policy="lrc",
            scheduling_policy="fair", tenant_quota_mb=self.quota_mb)
        cluster = Cluster(
            num_workers=self.workers, cores_per_worker=self.cores,
            memory_per_worker=self.memory, seed=self.seed)
        sc = StarkContext(cluster=cluster, config=config)
        observers = _Observers(sc) if self.listeners else None
        service = DatasetService(sc)
        names = [f"t{k}" for k in range(self.tenants)]
        for name, weight in zip(names, self.weights):
            service.create_tenant(name, weight=weight)

        def pipeline(tenant: int, dataset: int):
            source = self.sources[(tenant, dataset)]
            return sc.generated(source, self.partitions, read_cost="disk",
                                name=source.label).map(_rekey)

        for tenant, name in enumerate(names):
            for dataset in range(self.datasets):
                service.register_dataset(
                    name, f"{name}.d{dataset}",
                    pipeline(tenant, dataset)).release()
        # A tenant forks another's hot datasets: same blocks, new name.
        for dataset in range(3):
            service.branch_dataset(names[1], f"{names[0]}.d{dataset}",
                                   f"fork{dataset}").release()

        results: Dict[str, Any] = {}
        failed: Dict[str, str] = {}

        def job(j: int, tenant: int, dataset: int, ad_hoc: bool):
            def run(arrival: float, index: int) -> float:
                job_id = f"j{j}"
                try:
                    if ad_hoc:
                        results[job_id] = sc.run_job(
                            pipeline(tenant, dataset), len,
                            description=job_id, submit_time=arrival)
                    else:
                        with service.lookup_dataset(
                                names[tenant],
                                f"{names[tenant]}.d{dataset}") as handle:
                            results[job_id] = sc.run_job(
                                handle.rdd, len, description=job_id,
                                submit_time=arrival)
                except Exception as exc:  # a job that raises is a failed job
                    failed[job_id] = f"raised {exc!r}"
                    return max(arrival, sc.now)
                return sc.metrics.last_job().finish_time
            return user(run)

        for j, (arrival, tenant, dataset, ad_hoc) in enumerate(self.requests):
            service.submit(names[tenant], job(j, tenant, dataset, ad_hoc),
                           arrival)
        service.run()
        for dataset in range(3):
            service.drop_dataset(names[1], f"fork{dataset}")

        loads = [service.result_of(name) for name in names]
        shed = sum(load.shed_jobs for load in loads)
        if shed:
            failed["shed"] = f"{shed} jobs shed"
        counts = engine_counts(sc)
        counts["service.jobs"] = float(sum(len(load.results)
                                           for load in loads))
        counts["service.shed"] = float(shed)
        counts["service.registry.dedup_hits"] = float(
            service.registry.dedup_hits)
        result = PassResult(
            results=results,
            delays=[r.delay for load in loads for r in load.results],
            sim_makespan=sc.now, attempted=len(self.requests),
            failed=failed, counts=counts)
        if observers is not None:
            observers.finish(result, config.locality_wait)
        return result

    def verify(self, result: PassResult) -> Dict[str, str]:
        return _compare(self.expected, result)


class _Observers:
    """The program's own listeners, subscribed for one pass, and the
    analyses ``stark trace`` runs over what they collected."""

    def __init__(self, sc: StarkContext) -> None:
        self.sc = sc
        self.dir = OUT_DIR / f"explain.{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.collector = EventCollector()
        self.log = JsonlEventLog(self.dir / "events.jsonl")
        self.exporter = ChromeTraceExporter()
        self.sampler = UtilizationSampler()
        for listener in (self.collector, self.log, self.exporter,
                         self.sampler):
            sc.event_bus.subscribe(listener)

    def finish(self, result: PassResult, locality_wait: float) -> None:
        self.log.close()
        self.sampler.flush(self.sc.now)
        events = self.collector.events
        spans = build_spans(events)
        reports = critical_paths(events, locality_wait=locality_wait)
        trace_path = self.exporter.export(self.dir / "trace.json")
        result.counts["obs.events"] = float(len(events))
        result.counts["obs.critpath.jobs"] = float(len(reports))
        result.artifacts.update(
            dir=self.dir, trace=trace_path, spans=len(spans),
            path_problems=[p for r in reports for p in r.problems()],
            invariant_problems=check_event_invariants(events))


class ExplainService(ServiceCacheChurn):
    """The service mix at a third of the scale with every listener the
    program ships subscribed, then span reconstruction, critical-path
    blame, the event invariants and the Perfetto export."""

    name = "explain_service"
    base_jobs = 600
    listeners = True

    def verify(self, result: PassResult) -> Dict[str, str]:
        wrong = super().verify(result)
        art = result.artifacts
        for key in ("path_problems", "invariant_problems"):
            if art[key]:
                wrong[key] = f"{len(art[key])}: {art[key][0]}"
        try:
            with open(art["trace"], encoding="utf-8") as fh:
                if not json.load(fh)["traceEvents"]:
                    wrong["trace"] = "exported trace is empty"
        except (OSError, ValueError, KeyError) as exc:
            wrong["trace"] = f"exported trace does not load: {exc!r}"
        shutil.rmtree(art["dir"], ignore_errors=True)
        return wrong


# ---------------------------------------------------------------------------
# sql_tpch — SQL text through parse, optimize, compile and columnar kernels
# ---------------------------------------------------------------------------

CUSTOMER_SCHEMA = (("c_custkey", "int"), ("c_segment", "str"),
                   ("c_balance", "float"))
_CUSTOMERS = 100  # the orders generator draws o_custkey below this
_STATUSES, _FLAGS = "FOP", "ANR"


def _covering(rng: random.Random, lo: int, hi: int, n: int) -> List[int]:
    """``n`` integers spread evenly over ``[lo, hi)``, in seeded order."""
    values = [lo + i * (hi - lo) // n for i in range(n)]
    rng.shuffle(values)
    return values


def _by_key(rows: Sequence[tuple], column: int) -> Dict[Any, tuple]:
    return {row[column]: row for row in rows}


class SqlTpch:
    """Eight query templates x literal variants, back to back (closed
    loop), each ``session.sql(text).collect()`` over pre-materialised
    columnar tables.  References are row-at-a-time Python over the same
    rows."""

    name = "sql_tpch"
    partitions = 8
    workers, cores = 4, 2

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.variants = max(2, round(25 * scale))
        size = min(1.0, max(0.2, scale))
        self.orders_per_partition = round(3200 * size)
        self.lineitems_per_partition = round(12800 * size)

    def setup(self) -> None:
        seed, parts = self.seed, self.partitions
        total_orders = parts * self.orders_per_partition
        orders = [orders_rows(p, self.orders_per_partition, seed=seed,
                              num_customers=_CUSTOMERS)
                  for p in range(parts)]
        rng = random.Random(seed * 31 + 7)
        # lineitem partitions are uneven, as a loaded table's are: each a
        # few per cent off the mean, the total fixed.  (With equal
        # partitions the median query delay was the same for every seed.)
        skew = self.lineitems_per_partition // 30
        uneven = [rng.randint(-skew, skew) for _ in range(parts - 1)]
        uneven.append(-sum(uneven))
        lineitem = [lineitem_rows(p, self.lineitems_per_partition + uneven[p],
                                  total_orders, seed=seed)
                    for p in range(parts)]
        customer = [
            [(c, f"SEG{rng.randrange(5)}", round(rng.uniform(-500, 5000), 2))
             for c in range(_CUSTOMERS) if c % parts == p]
            for p in range(parts)]
        self.tables = {
            name: (schema, Memo(name, [ColumnarBatch.from_rows(schema, rows)
                                       for rows in table]))
            for name, schema, table in (
                ("orders", ORDERS_SCHEMA, orders),
                ("lineitem", LINEITEM_SCHEMA, lineitem),
                ("customer", CUSTOMER_SCHEMA, customer))}

        o_rows = [row for part in orders for row in part]
        l_rows = [row for part in lineitem for row in part]
        order_of = _by_key(o_rows, 0)
        segment_of = {row[0]: row[1] for part in customer for row in part}
        self.queries: List[Tuple[str, str, bool]] = []
        self.expected: Dict[str, list] = {}
        # Literals cover their ranges evenly in seeded order, so how much
        # each template selects over a pass does not depend on the seed.
        n = self.variants
        low_qs = _covering(rng, 5, 20, n)
        high_qs = _covering(rng, 35, 48, n)
        custs = _covering(rng, 10, 90, n)
        supps = _covering(rng, 0, 50, n)
        prices = [round(100 + (i + rng.random()) * 800 / n, 2)
                  for i in _covering(rng, 0, n, n)]
        for v in range(n):
            low_q, high_q, cust, supp = low_qs[v], high_qs[v], custs[v], supps[v]
            price = prices[v]
            status = _STATUSES[(v + seed) % 3]
            flag = _FLAGS[(v // 3 + seed) % 3]
            for t, (text, rows, ordered) in enumerate(_TEMPLATES(
                    o_rows, l_rows, order_of, segment_of, low_q, high_q,
                    status, flag, price, cust, supp)):
                job_id = f"q{v}.{t}"
                self.queries.append((job_id, text, ordered))
                self.expected[job_id] = rows if ordered else sorted(rows)

    def run_pass(self, user: UserWrap = identity) -> PassResult:
        config = StarkConfig(locality_enabled=False, mcf_enabled=False,
                             replication_enabled=False)
        cluster = Cluster(num_workers=self.workers,
                          cores_per_worker=self.cores,
                          memory_per_worker=4e9, seed=self.seed)
        sc = StarkContext(cluster=cluster, config=config)
        session = SQLSession(sc)
        for name, (schema, memo) in self.tables.items():
            session.create_table(name, schema, memo, self.partitions)
        results: Dict[str, Any] = {}
        failed: Dict[str, str] = {}
        delays: List[float] = []
        for job_id, text, ordered in self.queries:
            submitted = sc.now
            try:
                rows = session.sql(text).collect()
            except Exception as exc:  # a query that raises is a failed job
                failed[job_id] = f"raised {exc!r}"
                continue
            results[job_id] = rows if ordered else sorted(rows)
            delays.append(sc.now - submitted)
        counts = engine_counts(sc)
        counts["sql.queries"] = float(session.queries_completed)
        return PassResult(
            results=results, delays=delays, sim_makespan=sc.now,
            attempted=len(self.queries), failed=failed, counts=counts)

    def verify(self, result: PassResult) -> Dict[str, str]:
        return _compare(self.expected, result, _rows_equal)


def _rows_equal(got: list, want: list) -> bool:
    """Row lists equal, floats to 1e-9 relative: numpy sums pairwise, the
    reference sums left to right."""
    if len(got) != len(want):
        return False
    for g_row, w_row in zip(got, want):
        if len(g_row) != len(w_row):
            return False
        for g, w in zip(g_row, w_row):
            if isinstance(w, float):
                if not math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif g != w:
                return False
    return True


def _grouped(pairs, reducers) -> List[tuple]:
    """``pairs`` yields ``(key, value)``; one output row per key with each
    reducer applied to that key's values, in arrival order."""
    groups: Dict[Any, list] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return [(key, *(reduce(values) for reduce in reducers))
            for key, values in groups.items()]


def _mean(values: list) -> float:
    return sum(values) / len(values)


def _TEMPLATES(o_rows, l_rows, order_of, segment_of, low_q, high_q, status,
               flag, price, cust, supp):
    """The eight templates for one set of literals: ``(sql text, reference
    rows, whether row order is part of the answer)``.

    orders rows are ``(orderkey, custkey, status, totalprice)`` and
    lineitem rows ``(orderkey, suppkey, quantity, extendedprice,
    returnflag)``.
    """
    # 1. scan - filter - aggregate
    yield (
        "SELECT l_returnflag, SUM(l_extendedprice) AS revenue, "
        f"COUNT(*) AS n FROM lineitem WHERE l_quantity > {high_q} "
        "GROUP BY l_returnflag",
        _grouped(((r[4], r[3]) for r in l_rows if r[2] > high_q),
                 (sum, len)), False)
    # 2. join + group-by (the canned revenue query)
    yield (
        "SELECT l_returnflag, SUM(l_extendedprice) AS revenue "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        f"WHERE o_status = '{status}' AND l_quantity < {low_q} "
        "GROUP BY l_returnflag",
        _grouped(((r[4], r[3]) for r in l_rows
                  if r[2] < low_q and order_of[r[0]][2] == status),
                 (sum,)), False)
    # 3. top-k
    yield (
        "SELECT o_orderkey, o_totalprice FROM orders "
        f"WHERE o_totalprice > {price} "
        "ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10",
        sorted(((r[0], r[3]) for r in o_rows if r[3] > price),
               key=lambda r: (-r[1], r[0]))[:10], True)
    # 4. string MIN/MAX
    yield (
        "SELECT o_custkey, MIN(o_status) AS lo, MAX(o_status) AS hi "
        f"FROM orders WHERE o_totalprice < {price} GROUP BY o_custkey",
        _grouped(((r[1], r[2]) for r in o_rows if r[3] < price),
                 (min, max)), False)
    # 5. two joins
    yield (
        "SELECT c_segment, SUM(l_extendedprice) AS revenue "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        f"WHERE l_quantity > {high_q} GROUP BY c_segment",
        _grouped(((segment_of[order_of[r[0]][1]], r[3]) for r in l_rows
                  if r[2] > high_q), (sum,)), False)
    # 6. AVG over a key range
    yield (
        "SELECT o_status, AVG(o_totalprice) AS avg_price, COUNT(*) AS n "
        f"FROM orders WHERE o_custkey < {cust} GROUP BY o_status",
        _grouped(((r[2], r[3]) for r in o_rows if r[1] < cust),
                 (_mean, len)), False)
    # 7. computed column, sort, limit
    yield (
        "SELECT l_orderkey, l_quantity * l_extendedprice AS gross "
        f"FROM lineitem WHERE l_suppkey = {supp} "
        "ORDER BY gross DESC, l_orderkey ASC LIMIT 20",
        sorted(((r[0], r[2] * r[3]) for r in l_rows if r[1] == supp),
               key=lambda r: (-r[1], r[0]))[:20], True)
    # 8. numeric MIN/MAX per supplier under a two-part predicate
    yield (
        "SELECT l_suppkey, MIN(l_extendedprice) AS lo, "
        "MAX(l_extendedprice) AS hi, COUNT(*) AS n FROM lineitem "
        f"WHERE l_returnflag = '{flag}' AND l_quantity >= {low_q} "
        "GROUP BY l_suppkey",
        _grouped(((r[1], r[3]) for r in l_rows
                  if r[4] == flag and r[2] >= low_q),
                 (min, max, len)), False)


WORKLOADS = {cls.name: cls for cls in (
    StreamTaxi, ServiceCacheChurn, SqlTpch, ExplainService)}

# What run.py, tracing.py and probes.py take from here.
__all__ = [
    "Block", "Cluster", "EventCollector", "OUT_DIR", "PERF_DIR", "PassResult",
    "RecordSizer", "StarkConfig", "StarkContext", "WORKLOADS",
    "critical_paths", "identity", "import_module", "make_policy",
    "nearest_rank",
]
