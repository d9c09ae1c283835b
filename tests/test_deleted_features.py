"""Deleted features stay deleted.

Each feature below was a default-off switch that only its own benchmark
turned on.  Each was measured turned on everywhere and then deleted
rather than promoted:

* **Zero-copy shuffle handoff** (``StarkConfig.zero_copy_handoff``).
  Turned on everywhere it left the cache, speculation, tenant and MCF
  baselines unchanged and moved the elastic decisions.  It also shrank
  the paper's Fig 11 colocation win.
* **Auto-unpersist** (``StarkConfig.cache_auto_unpersist``) dropped an
  RDD once its declared uses drained.  LRC and cost eviction already
  take drained blocks first.  At seed 11 it made every policy of the
  ``cache_policies`` bench the same: LRU 0.0900 s -> 0.01847 s, FIFO
  0.0614 s -> 0.01847 s, LRC and cost at 0.018468 s.  Promoting it would
  erase the gap the bench asserts.  It left the ``cache_broker`` bench's
  LRC arm at 0.071597 s but made the broker arm 24.7 % slower (0.017982
  s -> 0.022421 s, cross-job hits 64 -> 56).
* **Admission threshold** (``StarkConfig.cache_admission_min_cost``)
  refused blocks cheaper to rebuild than a bound.  At 0.05 s it equalised
  the ``cache_policies`` bench the same way and moved the broker arm by
  -0.2 %.

No ``perf/`` workload declared a use or set a threshold, so neither
cache gate could fire there.

* **Speculative execution** (``StarkConfig.speculation``) cloned slow
  tasks onto other executors; the worker heterogeneity model (slow
  workers, transient slowdown windows) had no other caller and went with
  it.  Turned on everywhere, job values stayed correct but the paper's
  own mechanisms got worse: Fig 11's headline fell from 4.045x to 2.741x
  (``stark_h`` mean delay at N = 6: 7.73 s -> 37.72 s), the
  ``ablation_locality_wait`` ``wait_0ms`` mean delay rose 279 %, the
  ``elastic_diurnal`` latency p99 rose 115 %, the ``cache_broker`` LRC
  hit rate fell 0.1875 -> 0.1136 and the ``cache_policies`` LRU hit rate
  0.350 -> 0.245.  On ``perf/`` it raised ``stream_taxi``
  ``sim_delay_p50_s`` by 23 % (seed 11) and 40 % (seed 7) and
  ``explain_service`` ``sim_delay_p95_s`` by 20 % and 28 %.  Only
  ``sql_tpch``, ``tenant_fairness``, ``columnar_tpch`` and
  ``ablation_mcf`` were unmoved.

* **The micro-batch streaming layer** (``repro.streaming``: ``DStream``,
  ``StreamingContext``, ``StatefulStream``, ``update_state_by_key`` and
  the ``BatchSubmitted`` / ``BatchCompleted`` events only it posted).  No
  bench, app or ``perf/`` workload ran on it.  Fig 19/20 and the elastic
  diurnal replay could not move onto it without moving decisions: it
  ingested inside a kernel tick, its Spark path added a
  ``generated -> partition_by`` shuffle the harness does not have, and it
  named step RDDs differently.  ``repro.core.DatasetCollection`` is the
  one step loop now: it owns routing, caching, the GroupManager report
  and the window for every collection in the package.

* **The per-policy eviction classes** (``LRUPolicy``, ``FIFOPolicy``,
  ``LRCPolicy``, ``CostAwarePolicy`` and the ``QuotaAwarePolicy``
  wrapper every store was built with).  They were one ranking with
  different score functions: a constant score under the heap's
  ``(score, last_access, seq)`` order is LRU, and FIFO when an access
  does not refresh ``last_access``.  ``repro.cache.ScoredPolicy`` is the
  one class now, with the quota nominee built in;
  ``tests/cache/test_policy_oracle.py`` holds it to the old classes,
  kept verbatim in ``tests/cache/reference_policies.py``.

* **The sim-time logger** (``repro.obs.log``, the CLI's ``--log-level``)
  was a second observation channel beside the event bus.  Its four
  engine call sites repeated what ``JobStart``, ``JobEnd``,
  ``StageResubmitted`` and ``FailureInjected`` carry, its clock was the
  most recently built context's, and with no handler configured a worker
  kill reached stderr unformatted through ``logging.lastResort``.
  ``TenantStatsCollector`` went with it: nothing reported from it, and
  ``stark trace`` reconciles against the ``DatasetService`` counters.

* **The storage fraction knob** (``StarkConfig.storage_memory_fraction``)
  was 0.6 everywhere outside tests; it is the module constant
  ``repro.engine.context.STORAGE_MEMORY_FRACTION`` now.

* **Cluster autoscaling** (``repro.elastic``: ``ResourceManager``, the
  backlog / utilization / latency scaling policies, graceful
  decommission; ``Cluster.add_worker`` / ``remove_worker``,
  ``SimKernel.every`` and its daemon events,
  ``CostModel.worker_spinup_seconds``, ``JobDriver``'s
  ``resource_manager`` and ``max_pending_jobs``, the
  ``WorkerProvisioned`` / ``WorkerDecommissioned`` / ``BlocksMigrated``
  / ``JobShed`` / ``ScalingDecision`` events, ``stark elastic`` and
  ``--scale-policy`` / ``--min-workers`` / ``--max-workers``).  The
  paper runs on a fixed cluster; its elasticity is group elasticity
  (``GroupManager``), which stays.  Measured before deletion:

  - Fig 19 (``run_fig19(events_per_step=1_000)``, jobs/s at the 800 ms
    cap, Spark-H / Stark-H / Stark-E): static 8 workers 20 / 80 / 10,
    the 4.0x headline.  Each policy scaling 8 -> 16 workers: identical,
    20 / 80 / 10.  Each policy starting at 2 with a ceiling of 8 (the
    ``stark elastic`` defaults): 5 / 5 / 0, a 1.0x headline that fails
    the bench's ``ratio >= 3.0`` and Stark-H > Spark-H asserts.
  - Fig 20 (``run_fig20(hours=24, steps_per_hour=1, jobs_per_step=5)``,
    light-hour / peak-hour mean delay): static Spark-H 122.1 / 323.0 ms,
    Stark-E 181.5 / 282.7 ms, Stark-H max 92.6 ms, all four shape
    checks hold.  ``backlog`` and ``utilization`` 8 -> 16: identical.
    ``latency`` 8 -> 16: Stark-E 220.5 / 234.7 ms, +21 % at light hours
    and -17 % at the peak, on a crossover that already held.
    ``utilization`` and ``latency`` 2 -> 8 fail two of the four checks
    (Stark-H max < 0.6 x Spark-H max, Stark-E peak < Spark-H peak).

  So it reproduced no paper claim and broke two when it started below
  the static size.

* **The stock-Spark API no program called** (``repro.engine.pair_ops``,
  which patched ``left_outer_join``, ``right_outer_join``,
  ``full_outer_join``, ``subtract_by_key``, ``sort_by_key``,
  ``aggregate_by_key``, ``combine_by_key``, ``count_by_key``,
  ``lookup``, ``sample`` and ``take_sample`` onto ``RDD``;
  ``RDD.union`` / ``coalesce`` / ``repartition`` / ``distinct`` /
  ``keys`` / ``values`` / ``take`` with ``UnionRDD``, ``CoalescedRDD``,
  ``RangeDependency`` and ``GroupedDependency``; ``lineage.summarize``
  and ``to_dot``; ``StarkContext.describe_cluster``; three per-task
  ``JobMetrics`` summaries).  The paper adds only
  ``locality_partition_by``, namespaces and ``forceCheckpoint`` to the
  RDD API; no figure, app, bench, example, SQL plan or ``perf/``
  workload called any of these, and the ``perf/`` digests and ``sim_*``
  metrics are unchanged without them.  Every narrow dependency is
  one-to-one now (``OneToOneDependency``), and
  ``tests/test_engine_surface.py`` fails for any engine name that
  nothing outside the tests uses.

The checks below fail if any part of these features comes back under
its old names.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from repro import RDD, StarkConfig, StarkContext, engine, obs
from repro.cli import build_parser
from repro.cluster import Cluster, CostModel, SimKernel
from repro.cluster.queueing import JobDriver
from repro.engine.failure import FailureInjector

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Deleted feature -> fragments of every name it had (config fields,
#: methods, counters, CLI flags, event fields, blame categories).
DELETED = {
    "zero_copy_handoff": ("zero_copy", "zerocopy", "handoff", "intra_worker"),
    "auto_unpersist": ("auto_unpersist", "flush_deferred",
                       "deferred_unpersist", "external_pin"),
    "admission_threshold": ("admission_min_cost", "min_cost_seconds"),
    "speculation": ("speculat", "straggler"),
    "heterogeneity": ("heterogeneity", "slowdowns", "wall_duration"),
    "streaming": ("dstream", "streamingcontext", "statefulstream",
                  "receiver_stream", "update_state_by_key",
                  "batchsubmitted", "batchcompleted"),
    "policy_classes": ("lrupolicy", "fifopolicy", "lrcpolicy",
                       "costawarepolicy", "quotaawarepolicy"),
    "sim_time_logger": ("obs_log", "simtimeformatter", "bind_clock",
                        "log_level", "tenantstatscollector"),
    "autoscaling": ("autoscal", "resource_manager", "resourcemanager",
                    "scale_polic", "scaling_polic", "scalingdecision",
                    "workerprovisioned", "workerdecommissioned",
                    "blocksmigrated", "decommission", "spinup",
                    "add_worker", "remove_worker", "deregister_worker",
                    "value_density", "windowed_mean", "min_workers",
                    "max_workers"),
    "unused_spark_api": ("pair_ops", "outer_join", "subtract_by_key",
                         "sort_by_key", "aggregate_by_key",
                         "combine_by_key", "count_by_key", "take_sample",
                         "unionrdd", "coalescedrdd", "rangedependency",
                         "groupeddependency", "narrowdependency",
                         "get_parents", "lineagesummary", "to_dot",
                         "describe_cluster", "task_delay_stats",
                         "tasks_sorted_by_delay", "total_gc_time",
                         "memory_utilisation", "checkpointed_rdd_ids"),
}


def _spellings(tree):
    """Every identifier and string constant in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@pytest.mark.parametrize("feature", sorted(DELETED))
def test_no_source_names_a_deleted_feature(feature):
    fragments = DELETED[feature]
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for spelling in _spellings(tree):
            if any(part in spelling.lower().replace("-", "_")
                   for part in fragments):
                found.add(f"{path.relative_to(SRC)}: {spelling[:60]!r}")
    assert not found, f"{feature} re-introduced: {sorted(found)}"


def test_config_rejects_the_old_switch():
    with pytest.raises(TypeError):
        StarkConfig(zero_copy_handoff=True)


def test_config_rejects_the_speculation_switch():
    with pytest.raises(TypeError):
        StarkConfig(speculation=True)


@pytest.mark.parametrize("switch", [{"cache_auto_unpersist": True},
                                    {"cache_admission_min_cost": 0.05}])
def test_config_rejects_the_deleted_cache_switches(switch):
    with pytest.raises(TypeError):
        StarkConfig(**switch)


@pytest.mark.parametrize("argv", [
    ["--cache-admission-min-cost", "0.05", "list"],
    ["cache", "--admission-min-cost", "0.05"],
    ["cache", "--auto-unpersist"],
])
def test_cli_rejects_the_deleted_cache_flags(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2  # argparse's usage error


def test_cli_has_no_speculation_command():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert "cache" in commands  # the lookup found the subcommand table
    assert "speculation" not in commands


def test_config_rejects_the_storage_fraction_knob():
    with pytest.raises(TypeError):
        StarkConfig(storage_memory_fraction=0.5)


def test_sim_time_logger_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.log")


def test_cli_rejects_the_log_level_flag():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--log-level", "DEBUG", "list"])
    assert exc.value.code == 2  # argparse's usage error


def test_worker_kill_writes_nothing_to_stderr(capsys, caplog):
    """The event bus is the one channel: a kill posts ``FailureInjected``
    and neither prints nor logs.  Under pytest a log record goes to the
    capture handler rather than to stderr, so both are checked."""
    context = StarkContext(num_workers=2, cores_per_worker=1)
    context.parallelize(range(8), 4).cache().count()
    capsys.readouterr()
    FailureInjector(context).kill_worker(0)
    assert capsys.readouterr().err == ""
    assert caplog.records == []


def test_streaming_package_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.streaming")


def test_only_the_collection_reports_rdds():
    """Group elasticity needs every collection step reported; a caller
    that reports by hand can forget to, so only the collection does."""
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "report_rdd"):
                callers.add(str(path.relative_to(SRC)))
    assert callers == {"core/collection.py"}


def test_elastic_package_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.elastic")


def test_job_driver_takes_no_scaling_hooks():
    params = inspect.signature(JobDriver).parameters
    assert "context" in params  # the lookup read the real signature
    assert "resource_manager" not in params
    assert "max_pending_jobs" not in params


def test_cluster_membership_is_fixed():
    assert hasattr(Cluster, "kill_worker")
    assert not hasattr(Cluster, "add_worker")
    assert not hasattr(Cluster, "remove_worker")
    assert hasattr(SimKernel, "run_all")
    assert not hasattr(SimKernel, "every")


def test_cost_model_has_no_spinup_delay():
    names = {f.name for f in dataclasses.fields(CostModel)}
    assert "cpu_per_record" in names
    assert "worker_spinup_seconds" not in names


@pytest.mark.parametrize("name", ["WorkerProvisioned", "WorkerDecommissioned",
                                  "BlocksMigrated", "JobShed",
                                  "ScalingDecision"])
def test_obs_exports_no_scaling_event(name):
    assert hasattr(obs, "TenantJobShed")  # the tenant's shed event stays
    assert not hasattr(obs, name)
    assert name not in obs.__all__
    assert not hasattr(obs.events, name)


def test_cli_has_no_elastic_command():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert "fig19" in commands
    assert "elastic" not in commands


@pytest.mark.parametrize("argv", [
    ["fig19", "--scale-policy", "backlog"],
    ["fig20", "--min-workers", "2"],
    ["fig20", "--max-workers", "8"],
])
def test_cli_rejects_the_scaling_flags(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2  # argparse's usage error


def test_pair_ops_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine.pair_ops")


@pytest.mark.parametrize("name", [
    "left_outer_join", "right_outer_join", "full_outer_join",
    "subtract_by_key", "sort_by_key", "aggregate_by_key", "combine_by_key",
    "count_by_key", "lookup", "sample", "take_sample", "union", "coalesce",
    "repartition", "distinct", "keys", "values", "take"])
def test_rdd_has_no_unused_spark_method(name):
    assert hasattr(RDD, "group_by_key")  # the kept shuffle primitive
    assert not hasattr(RDD, name)


@pytest.mark.parametrize("name", ["UnionRDD", "CoalescedRDD",
                                  "RangeDependency", "GroupedDependency"])
def test_engine_exports_no_deleted_rdd_or_dependency_kind(name):
    assert hasattr(engine, "OneToOneDependency")  # the one narrow kind
    assert not hasattr(engine, name)
    assert name not in engine.__all__
    assert not hasattr(engine.shuffled, name)
    assert not hasattr(engine.dependency, name)
