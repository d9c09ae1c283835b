"""End-to-end acceptance: reconciliation, zero-perturbation, artifacts.

These tests pin the observability layer's two core guarantees:

* event-log aggregates reconcile exactly with MetricsCollector totals;
* tracing disabled emits zero events and leaves every simulated
  makespan bit-identical.
"""

import json

from repro.obs import (
    EventCollector,
    check_event_invariants,
    observe_to_dir,
    read_event_log,
    validate_event_log,
)
from repro.obs.events import BlockEvicted, CacheHit, CacheMiss, TaskEnd

from .conftest import make_context, run_small_workload


class TestReconciliation:
    def test_event_counts_match_metrics(self, sc):
        collector = EventCollector()
        sc.event_bus.subscribe(collector)
        run_small_workload(sc)

        metrics = sc.metrics
        stats = metrics.cache_stats()
        assert len(collector.of_type(TaskEnd)) == metrics.total_tasks()
        assert len(collector.of_type(CacheHit)) == stats["hits"]
        assert len(collector.of_type(CacheMiss)) == stats["misses"]
        capacity = [e for e in collector.of_type(BlockEvicted)
                    if e.reason == "capacity"]
        assert len(capacity) == metrics.evictions

    def test_eviction_events_under_memory_pressure(self):
        context = make_context(num_workers=2, cores_per_worker=2,
                               memory_per_worker=3e5, seed=5)
        collector = EventCollector()
        context.event_bus.subscribe(collector)
        rdds = []
        for i in range(4):
            data = [(j % 7, j + i) for j in range(2000)]
            rdds.append(
                context.parallelize(data, num_partitions=4).cache())
        for rdd in rdds:
            rdd.count()
        assert context.metrics.evictions > 0
        capacity = [e for e in collector.of_type(BlockEvicted)
                    if e.reason == "capacity"]
        assert len(capacity) == context.metrics.evictions


class TestZeroPerturbation:
    def test_no_listeners_means_no_events_and_inactive_bus(self, sc):
        assert not sc.event_bus.active
        run_small_workload(sc)
        assert not sc.event_bus.active
        assert len(sc.event_bus) == 0

    def test_tracing_does_not_change_makespans(self):
        def run(traced):
            context = make_context(num_workers=4, cores_per_worker=2,
                                   memory_per_worker=1e9, seed=42)
            if traced:
                context.event_bus.subscribe(EventCollector())
            run_small_workload(context)
            return ([(tm.start_time, tm.finish_time)
                     for job in context.metrics.jobs for tm in job.tasks],
                    context.metrics.cache_stats())

        assert run(traced=False) == run(traced=True)


class TestObserveToDir:
    def test_writes_valid_artifacts_per_context(self, tmp_path):
        out = tmp_path / "artifacts"
        with observe_to_dir(out):
            context = make_context(num_workers=2, cores_per_worker=2,
                                   memory_per_worker=1e9, seed=1)
            run_small_workload(context)

        events_path = out / "events-0.jsonl"
        trace_path = out / "trace-0.json"
        assert events_path.exists()
        assert trace_path.exists()
        assert validate_event_log(events_path) == []
        events = read_event_log(events_path)
        assert check_event_invariants(events) == []
        assert len([e for e in events if isinstance(e, TaskEnd)]) \
            == context.metrics.total_tasks()
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    def test_contexts_outside_block_are_not_observed(self, tmp_path):
        with observe_to_dir(tmp_path / "x"):
            pass
        context = make_context(num_workers=1, cores_per_worker=1,
                               memory_per_worker=1e9)
        assert not context.event_bus.active
