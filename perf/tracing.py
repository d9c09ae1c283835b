"""Per-layer tracing from outside the program.

One table, :data:`BOUNDARIES`, names the public functions through which
work enters each layer.  For a traced pass :class:`Tracer` swaps every
one of them for a timing wrapper, keeps a span stack, and restores the
originals afterwards; nothing under ``src/`` is edited.  A span records
``id, parent, name, start, end, job``; a layer's *self* time is its
spans' durations minus the part their child spans cover, so the layers
plus ``other`` (the benchmark's own job closures and the pass's root)
tile the traced wall exactly.

Only functions called O(tasks) or O(events) times are boundaries.
``CacheManager.estimate_recompute_cost`` is left out on purpose: the
broker calls it once per resident block per victim choice (over a million
times in a service pass), so its time is reported inside the victim
choice that asked for it.

A boundary the program no longer has is skipped and listed in
``Tracer.missing`` — a later change that deletes a layer must not need
to edit this file to keep the benchmark running.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from adapter import import_module

OTHER = "other"

#: (module, class or None, function, layer).  ``Class+`` also wraps the
#: function on every subclass that defines it.
BOUNDARIES: List[Tuple[str, Optional[str], str, str]] = [
    *[("repro.cluster.events", "SimKernel", fn, "cluster.kernel") for fn in (
        "run_until", "run_all", "pump", "schedule", "schedule_many",
        "run_on_earliest_slot", "occupy_slot")],
    *[("repro.cluster.cost_model", "RecordSizer", fn, "cluster.sizer")
      for fn in ("size_of_partition", "in_memory_size")],
    ("repro.engine.dag_scheduler", "DAGScheduler", "run_job", "engine.dag"),
    ("repro.engine.task_scheduler", "TaskScheduler", "run_taskset",
     "engine.tasksched"),
    *[("repro.engine.compute", "EvalContext", fn, "engine.compute")
      for fn in ("evaluate", "fetch_shuffle", "write_shuffle_output")],
    *[("repro.engine.block_manager", "BlockManagerMaster", fn,
       "engine.blockstore") for fn in (
        "put", "get_local", "remove_block", "remove_rdd", "migrate_block",
        "lose_worker")],
    *[("repro.engine.lineage", None, fn, "engine.lineage")
      for fn in ("lineage_fingerprint", "prefix_fingerprints")],
    *[("repro.cache.manager", "CacheManager", fn, "cache.manager") for fn in (
        "should_admit", "on_job_submit", "on_stage_complete",
        "on_job_complete")],
    ("repro.cache.policy", "CachePolicy+", "choose_victim", "cache.policy"),
    *[("repro.cache.broker", "CacheBroker", fn, "cache.broker") for fn in (
        "choose_local_victim", "relieve_pressure", "on_job_submit",
        "on_job_complete", "equivalent_for", "migration_order")],
    *[("repro.cache.reference_tracker", "ReferenceTracker", fn,
       "cache.tracker") for fn in (
        "on_job_submit", "on_stage_complete", "on_job_complete",
        "flush_deferred")],
    *[("repro.core.locality_manager", "LocalityManager", fn, "core.locality")
      for fn in ("register_rdd", "preferred_executors", "remove_executor")],
    *[("repro.core.group_manager", "GroupManager", fn, "core.groups")
      for fn in ("report_rdd", "rebalance", "preferred_executors",
                 "remove_executor")],
    ("repro.core.mcf_scheduler", "MinimumContentionFirstPolicy",
     "choose_worker", "core.mcf"),
    *[("repro.service.service", "DatasetService", fn, "service.dispatch")
      for fn in ("submit", "run")],
    *[("repro.service.pools", "PoolSet", fn, "service.dispatch")
      for fn in ("enqueue", "select", "charge")],
    *[("repro.service.registry", "DatasetRegistry", fn, "service.registry")
      for fn in ("register", "lookup", "branch", "drop")],
    *[("repro.service.quotas", "TenantCacheQuotas", fn, "service.quotas")
      for fn in ("admit", "preferred_victim")],
    ("repro.sql.parser", None, "parse_select", "sql.parse"),
    ("repro.sql.optimizer", None, "optimize", "sql.optimize"),
    ("repro.sql.compiler", None, "compile_plan", "sql.compile"),
    *[("repro.columnar.kernels", None, fn, "columnar.exchange")
      for fn in ("hash_partition_codes", "split_by_partition")],
    *[("repro.columnar.kernels", None, fn, "columnar.kernels") for fn in (
        "factorize", "group_aggregate", "merge_aggregate", "hash_join",
        "sort_batch", "limit_batch", "concat_batches")],
    ("repro.obs.bus", "EventBus", "post", "obs.emit"),
    *[("repro.obs." + module, cls, "on_event", "obs.listeners")
      for module, cls in (
        ("listeners", "JsonlEventLog"), ("listeners", "EventCollector"),
        ("trace", "ChromeTraceExporter"), ("sampler", "UtilizationSampler"))],
    ("repro.obs.spans", None, "build_spans", "obs.spans"),
    ("repro.obs.critical_path", None, "critical_paths", "obs.critpath"),
    ("repro.obs.invariants", None, "check_event_invariants",
     "obs.invariants"),
    ("repro.obs.trace", "ChromeTraceExporter", "export", "obs.export"),
]

LAYERS: List[str] = list(dict.fromkeys(b[3] for b in BOUNDARIES))


def _sized(args, result) -> float:
    records = args[1]
    return float(len(records)) if hasattr(records, "__len__") else 0.0


#: Work counts taken where the work happens: (class or None, function) ->
#: [(count name, f(call args, result))].
COUNTERS: Dict[Tuple[Optional[str], str], List[Tuple[str, Callable]]] = {
    ("SimKernel", "run_until"):
        [("cluster.kernel.events", lambda a, r: float(r))],
    ("SimKernel", "run_all"):
        [("cluster.kernel.events", lambda a, r: float(r))],
    ("RecordSizer", "size_of_partition"): [("cluster.sizer.records", _sized)],
    ("RecordSizer", "in_memory_size"): [("cluster.sizer.records", _sized)],
    (None, "hash_partition_codes"):
        [("columnar.rows", lambda a, r: float(a[0].num_rows))],
    (None, "optimize"): [
        ("sql.pushed_filters", lambda a, r: float(r[1].pushed_filters)),
        ("sql.pruned_columns", lambda a, r: float(r[1].pruned_columns))],
    (None, "compile_plan"): [
        ("sql.exchanges", lambda a, r: float(r[1].exchanges)),
        ("sql.elided_exchanges",
         lambda a, r: float(r[1].elided_exchanges))],
}

TRACE_COUNTS: List[str] = list(dict.fromkeys(
    name for entries in COUNTERS.values() for name, _ in entries))


class Tracer:
    """Timing wrappers over :data:`BOUNDARIES` plus the span ledger."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (id, parent id or -1, layer, start, end, job label or None)
        self.spans: List[tuple] = []
        self.wall_s = 0.0
        #: Boundaries the program does not have (skipped).
        self.missing: List[str] = []
        # Frames are [span id, seconds covered by child spans]; the
        # bottom frame is the pass itself.
        self._stack: List[list] = [[-1, 0.0]]
        self._ids = count()
        # Label of the job the current span works for: a SQL query's
        # label sticks from its parse to the next parse; otherwise the
        # outermost run_job names it.
        self._job: List[Optional[str]] = [None]
        self._restore: List[Callable[[], None]] = []

    # ---- wrappers -----------------------------------------------------------

    def _traced(self, fn: Callable, layer: str,
                counters: Optional[list] = None,
                scope: Optional[str] = None) -> Callable:
        stack, spans, ids, job = self._stack, self.spans, self._ids, self._job
        self_s, calls, counts = self.self_s, self.calls, self.counts
        clock = perf_counter

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            owns_job = False
            if scope == "query":
                job[0] = f"q{frame[0]}"
            elif scope == "job" and job[0] is None:
                job[0] = f"j{frame[0]}"
                owns_job = True
            label = job[0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counters is not None:
                    for name, measure in counters:
                        counts[name] += measure(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1]
                parent[1] += duration
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                spans.append((frame[0], parent[0], layer, start, end, label))
                if owns_job:
                    job[0] = None

        traced.__wrapped__ = fn
        return traced

    def user(self, fn: Callable) -> Callable:
        """Wrap one of the benchmark's own job closures as ``other``."""
        return self._traced(fn, OTHER)

    # ---- install / restore --------------------------------------------------

    def _patch_class(self, cls: type, cls_name: str, fn_name: str,
                     layer: str) -> None:
        original = getattr(cls, fn_name)
        scope = "job" if (cls_name, fn_name) == ("DAGScheduler",
                                                 "run_job") else None
        wrapper = self._traced(original, layer,
                               COUNTERS.get((cls_name, fn_name)), scope)
        if fn_name in cls.__dict__:
            self._restore.append(lambda: setattr(cls, fn_name, original))
        else:  # inherited: shadow it, and un-shadow on restore
            self._restore.append(lambda: delattr(cls, fn_name))
        setattr(cls, fn_name, wrapper)

    def _patch_function(self, module, fn_name: str, layer: str) -> None:
        original = getattr(module, fn_name)
        scope = "query" if fn_name == "parse_select" else None
        wrapper = self._traced(original, layer,
                               COUNTERS.get((None, fn_name)), scope)
        # ``from .kernels import hash_partition_codes`` binds the function
        # in the importer's namespace too: patch every binding, the
        # benchmark's own door included.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name.startswith("repro")
                                   or name == "adapter"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append(
                        lambda mod=mod, attr=attr: setattr(mod, attr,
                                                           original))

    def install(self) -> None:
        for module_name, cls_name, fn_name, layer in BOUNDARIES:
            where = ".".join(p for p in (module_name, cls_name, fn_name) if p)
            try:
                module = import_module(module_name)
                if cls_name is None:
                    self._patch_function(module, fn_name, layer)
                    continue
                cls = getattr(module, cls_name.rstrip("+"))
                if cls_name.endswith("+"):
                    for sub in _subclasses(cls):
                        if fn_name in sub.__dict__:
                            self._patch_class(sub, sub.__name__, fn_name,
                                              layer)
                else:
                    self._patch_class(cls, cls_name, fn_name, layer)
            except (ImportError, AttributeError):
                self.missing.append(where)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ---- one traced pass ----------------------------------------------------

    def run(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span; resets the ledger first."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.spans.clear()
        self._job[0] = None
        root = self._stack[0]
        root[1] = 0.0
        start = perf_counter()
        result = fn()
        self.wall_s = perf_counter() - start
        self.self_s[OTHER] += self.wall_s - root[1]
        return result

    def metrics(self) -> Dict[str, float]:
        """``<layer>.self_s`` / ``<layer>.calls`` and the trace counts."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = float(self.calls.get(layer, 0))
        out[f"{OTHER}.self_s"] = self.self_s.get(OTHER, 0.0)
        for name in TRACE_COUNTS:
            out[name] = self.counts.get(name, 0.0)
        return out

    def write_spans(self, path: Path) -> Path:
        """One JSON object per span; times are seconds from the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, layer, start, end, job in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": layer,
                    "start": start - origin, "end": end - origin,
                    "job": job}, separators=(",", ":")))
                fh.write("\n")
        return path


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
