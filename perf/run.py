#!/usr/bin/env python3
"""The repo benchmark: ``python3 perf/run.py``.

Four workloads, each measured two ways:

* ``--trace 0`` — set-up (several times, median), one warm-up pass, then
  timed passes for ``--seconds``; prints the end-to-end metrics.  Tracing
  is never installed in this mode.
* ``--trace 1`` — untraced and traced passes alternate; prints per-layer
  self time, call counts and work counts from the fastest traced pass,
  the tracing overhead, and the scaling probes.

Host times are the *fastest* pass of a run: a pass is deterministic, so
whatever a slower pass adds is the host's doing, not the program's.

With ``--workload`` and ``--trace`` the run happens in this process, the
last line of standard output is one JSON object (the contract in
``BENCHMARK.json``) and the full result goes to ``perf/out/``; the exit
code is 1 when a job was wrong or passes disagreed.  Without them every
workload runs in its own subprocess, both ways, and a table is printed;
``--smoke``, ``--aa`` and ``--spread`` build on that.  See
``perf/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Sequence

_import_started = perf_counter()
try:
    import adapter
except ImportError as exc:  # no program to measure: fail without a result
    print(f"perf/run.py: {exc}", file=sys.stderr)
    sys.exit(2)
import probes  # noqa: E402
import tracing  # noqa: E402
IMPORT_S = perf_counter() - _import_started

ROOT = adapter.PERF_DIR.parent
WORKLOAD_NAMES = list(adapter.WORKLOADS)
DEFAULT_SEED = 11
SETUP_REPEATS = 3
MIN_PASSES = 3
#: ``--smoke``: every workload at this share of its size, for this long.
SMOKE_SCALE, SMOKE_SECONDS = 0.1, 1.0
#: A pass whose wall exceeds its CPU time by this factor shared the core.
DISTURBED_RATIO = 1.15
#: Part of a traced run's ``--seconds`` kept back for the probes.
PROBE_SECONDS = 4.0

END_TO_END = ["setup_s", "wall_s", "cpu_s", "host_us_per_task", "peak_rss_mb",
              "sim_makespan_s", "sim_delay_p50_s", "sim_delay_p95_s"]
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
         "host_us_per_task": "us", "peak_rss_mb": "MB",
         "sim_makespan_s": "sim_s", "sim_delay_p50_s": "sim_s",
         "sim_delay_p95_s": "sim_s"}

#: Counts read from the program's counters after every pass, traced or
#: not; they must repeat exactly.
PASS_COUNTS = [
    "engine.dag.jobs", "engine.dag.stages", "engine.tasksched.tasks",
    "engine.tasksched.local_ratio", "engine.compute.shuffle_bytes",
    "cache.hits", "cache.misses", "cache.hit_ratio", "cache.evictions",
    "cache.recomputed_partitions", "cache.admit_ratio",
    "cache.broker.evictions", "cache.broker.migrations",
    "cache.broker.prefix_hits", "cache.broker.prefix_hit_ratio",
    "core.groups.splits", "core.groups.merges",
    "service.jobs", "service.shed", "service.registry.dedup_hits",
    "sql.queries", "obs.events", "obs.critpath.jobs"]


def per_layer_names() -> List[str]:
    """Every metric a ``--trace 1`` run reports, in print order."""
    names = [f"{layer}.{kind}" for layer in tracing.LAYERS
             for kind in ("self_s", "calls")]
    names.append(f"{tracing.OTHER}.self_s")
    names += tracing.TRACE_COUNTS + PASS_COUNTS
    names += ["trace.wall_s", "trace.overhead_frac"]
    names += list(probes.PROBES)
    return names


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("self_s", "wall_s")):
        return "s"
    if name.endswith(("ratio", "frac")):
        return "ratio"
    if name.endswith(".exp"):
        return "exponent"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# measuring one workload in this process
# ---------------------------------------------------------------------------

def calibration_ops_per_s(ops: int = 200_000) -> float:
    """Ops/s of a fixed pure-Python loop (the one ``bench_kernel_throughput``
    normalises by) — tells host drift from program change."""
    start = perf_counter()
    acc = 0
    for i in range(ops):
        acc = (acc * 31 + i) % 1000003
    return ops / (perf_counter() - start)


def digest_of(results: Dict[str, Any]) -> str:
    return hashlib.sha256(repr(sorted(results.items())).encode()).hexdigest()[:16]


class Pass:
    """One pass's host times, simulated statistics and verdict."""

    def __init__(self, workload, run: Callable[[], adapter.PassResult]) -> None:
        gc.collect()
        wall0, cpu0 = perf_counter(), process_time()
        result = run()
        self.cpu_s = process_time() - cpu0
        self.wall_s = perf_counter() - wall0
        self.wrong = workload.verify(result)
        self.attempted = result.attempted
        self.counts = result.counts
        delays = sorted(result.delays)
        self.sim = {
            "sim_makespan_s": result.sim_makespan,
            "sim_delay_p50_s": adapter.nearest_rank(delays, 50.0),
            "sim_delay_p95_s": adapter.nearest_rank(delays, 95.0),
        }
        self.tasks = int(result.counts["engine.tasksched.tasks"])
        self.digest = digest_of(result.results)

    def fingerprint(self) -> tuple:
        """Everything that must be bit-identical between passes."""
        return (tuple(self.sim.items()), self.digest,
                tuple(sorted(self.counts.items())))


def _enough(walls: List[float], started: float, seconds: float,
            minimum: int = MIN_PASSES) -> bool:
    """Whether the measuring loop has made enough rounds of ``walls``."""
    if len(walls) < minimum:
        return False
    # Stop when another pass would overshoot the budget by more than
    # it undershoots now.
    return perf_counter() - started + 0.5 * statistics.median(walls) >= seconds


def _verdict(passes: List[Pass]) -> Dict[str, Any]:
    """Failure counts over ``passes`` and whether they all agree."""
    wrong: Dict[str, str] = {}
    for p in passes:
        wrong.update(p.wrong)
    deterministic = len({p.fingerprint() for p in passes}) == 1
    failed = sum(len(p.wrong) for p in passes)
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "failed_jobs": dict(list(wrong.items())[:20]),
        "deterministic": deterministic,
        "correct": failed == 0 and deterministic,
    }


def measure_end_to_end(name: str, seed: int, scale: float,
                       seconds: float) -> Dict[str, Any]:
    cls = adapter.WORKLOADS[name]
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        workload = cls(seed, scale)
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    passes = [Pass(workload, workload.run_pass)]  # warm-up, verified
    timed: List[Pass] = []
    calib: List[float] = []
    started = perf_counter()
    while not _enough([p.wall_s for p in timed], started, seconds):
        calib.append(calibration_ops_per_s())
        timed.append(Pass(workload, workload.run_pass))
    passes += timed
    walls = [p.wall_s for p in timed]
    cpu_s = min(p.cpu_s for p in timed)
    last = timed[-1]
    metrics = {
        "setup_s": IMPORT_S + statistics.median(setups),
        "wall_s": min(walls),
        "cpu_s": cpu_s,
        "host_us_per_task": cpu_s / last.tasks * 1e6,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **last.sim,
    }
    detail = _verdict(passes)
    detail.update(
        workload=name, seed=seed, trace=0, metrics=metrics,
        jobs=last.attempted, tasks=last.tasks, digest=last.digest,
        passes=len(timed), wall_median=statistics.median(walls),
        wall_max=max(walls),
        disturbed=sum(p.wall_s > DISTURBED_RATIO * p.cpu_s for p in timed),
        import_s=IMPORT_S, setup_runs=setups,
        calib_ops_per_s=statistics.median(calib), counts=last.counts)
    return detail


def measure_per_layer(name: str, seed: int, scale: float,
                      seconds: float) -> Dict[str, Any]:
    cls = adapter.WORKLOADS[name]
    workload = cls(seed, scale)
    workload.setup()
    tracer = tracing.Tracer()
    plain = [Pass(workload, workload.run_pass)]  # the first warms up
    traced: List[Pass] = []
    layer_metrics: List[Dict[str, float]] = []
    started = perf_counter()
    # One round is an untraced pass then a traced one, so drift in the
    # host hits both sides of the overhead ratio alike.
    while not _enough([p.wall_s + t.wall_s for p, t in zip(plain[1:], traced)],
                      started, max(1.0, seconds - PROBE_SECONDS), minimum=1):
        plain.append(Pass(workload, workload.run_pass))
        with tracer.installed():
            traced.append(Pass(workload, lambda: tracer.run(
                lambda: workload.run_pass(tracer.user))))
        layer_metrics.append({**tracer.metrics(),
                              "trace.wall_s": tracer.wall_s})
    spans_path = tracer.write_spans(adapter.OUT_DIR / f"{name}.spans.jsonl")

    chosen, metrics = min(zip(traced, layer_metrics),
                          key=lambda pair: pair[1]["trace.wall_s"])
    plain_wall = min(p.wall_s for p in plain)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / plain_wall - 1.0
    for count_name in PASS_COUNTS:
        metrics[count_name] = chosen.counts.get(count_name, 0.0)
    exponents, probe_lines = probes.run_all()
    metrics.update(exponents)
    detail = _verdict(plain + traced)
    detail.update(
        workload=name, seed=seed, trace=1,
        metrics={key: metrics[key] for key in per_layer_names()},
        jobs=chosen.attempted, tasks=chosen.tasks, digest=chosen.digest,
        passes=len(traced), plain_wall_s=plain_wall,
        spans=len(tracer.spans), spans_file=str(spans_path),
        missing_boundaries=tracer.missing, probe_lines=probe_lines)
    return detail


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def print_end_to_end(d: Dict[str, Any]) -> None:
    m = d["metrics"]
    print(f"== {d['workload']}  seed {d['seed']}  end to end "
          f"({d['passes']} timed passes, {d['jobs']} jobs, "
          f"{d['tasks']} tasks per pass) ==")
    for name in END_TO_END:
        extra = ""
        if name == "wall_s":
            extra = (f"   fastest of n {d['passes']}; median "
                     f"{d['wall_median']:.4f}  max {d['wall_max']:.4f}")
        elif name == "cpu_s":
            extra = f"   disturbed passes {d['disturbed']}"
        elif name == "setup_s":
            extra = (f"   import {d['import_s']:.3f} + median of "
                     f"{len(d['setup_runs'])} set-ups")
        print(f"  {name:18s} {m[name]:12.5f} {UNITS[name]:6s}{extra}")
    print(f"  {'failed_frac':18s} {d['failed'] / d['attempted']:12.5f} ratio"
          f"   {d['failed']} of {d['attempted']} jobs over all passes")
    print(f"  calib_ops_per_s {d['calib_ops_per_s']:.0f} (informational)   "
          f"digest {d['digest']}   deterministic {d['deterministic']}")
    _print_failures(d)


def print_per_layer(d: Dict[str, Any]) -> None:
    m = d["metrics"]
    wall = m["trace.wall_s"]
    print(f"== {d['workload']}  seed {d['seed']}  per layer "
          f"({d['passes']} traced passes, {d['spans']} spans in the last, "
          f"traced wall {wall:.4f} s, untraced {d['plain_wall_s']:.4f} s, "
          f"overhead {m['trace.overhead_frac']:+.3f}) ==")
    print(f"  {'layer':20s} {'self_s':>10s} {'share':>7s} {'calls':>9s}")
    layers = tracing.LAYERS + [tracing.OTHER]
    for layer in sorted(layers, key=lambda l: -m[f"{l}.self_s"]):
        calls = m.get(f"{layer}.calls")
        if m[f"{layer}.self_s"] == 0.0 and not calls:
            continue
        print(f"  {layer:20s} {m[f'{layer}.self_s']:10.4f} "
              f"{m[f'{layer}.self_s'] / wall:7.1%} "
              f"{'' if calls is None else format(int(calls), '9d')}")
    counts = [n for n in tracing.TRACE_COUNTS + PASS_COUNTS if m[n]]
    print("  counts: " + "  ".join(f"{n}={m[n]:.6g}" for n in counts))
    for line in d["probe_lines"]:
        print("  " + line)
    if d["missing_boundaries"]:
        print("  boundaries not found (skipped): "
              + ", ".join(d["missing_boundaries"]))
    print(f"  spans written to {d['spans_file']}")
    _print_failures(d)


def _print_failures(d: Dict[str, Any]) -> None:
    for job_id, reason in d["failed_jobs"].items():
        print(f"  FAILED {job_id}: {reason}")
    if not d["deterministic"]:
        print("  FAILED determinism: simulated statistics, counts or result "
              "digest differ between passes")


def contract_line(d: Dict[str, Any]) -> str:
    """The single JSON object the benchmark driver reads."""
    return json.dumps({
        "correct": d["correct"], "attempted": d["attempted"],
        "failed": d["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in d["metrics"].items()},
    })


# ---------------------------------------------------------------------------
# all workloads, each in its own subprocess
# ---------------------------------------------------------------------------

def detail_path(name: str, trace: int) -> Path:
    return adapter.OUT_DIR / f"{name}.trace{trace}.json"


def run_child(name: str, seed: int, trace: int, sizing: Sequence[str],
              ) -> Dict[str, Any]:
    """Run one workload in a child process; returns its detail dict."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed), "--trace", str(trace),
               *sizing]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    if done.returncode not in (0, 1):  # 1: ran, and reports a wrong result
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    with open(detail_path(name, trace), encoding="utf-8") as fh:
        return json.load(fh)


def run_set(seed: int, sizing: Sequence[str], traces: Sequence[int] = (0, 1),
            quiet: bool = False) -> Dict[str, Dict[int, Dict[str, Any]]]:
    results: Dict[str, Dict[int, Dict[str, Any]]] = {}
    for name in WORKLOAD_NAMES:
        results[name] = {}
        for trace in traces:
            detail = run_child(name, seed, trace, sizing)
            results[name][trace] = detail
            if not quiet:
                (print_per_layer if trace else print_end_to_end)(detail)
                print()
    return results


def load_manifest() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_bounds() -> Dict[str, float]:
    return {m["name"]: m["bound"] for m in load_manifest()["end_to_end"]}


def run_aa(seed: int, sizing: Sequence[str]) -> bool:
    """Two full end-to-end sets of the same code at one seed: ``sim_*``
    must repeat exactly, every other metric within its bound."""
    bounds = load_bounds()
    first = run_set(seed, sizing, traces=(0,), quiet=True)
    second = run_set(seed, sizing, traces=(0,), quiet=True)
    print(f"A/A at seed {seed}: two sets back to back; `diff` is the gap "
          "between the two readings as a share of the lower one (+ when "
          "the second set reads higher), judged in both directions.\n")
    print("| workload | metric | first | second | diff | bound | verdict |")
    print("|---|---|---:|---:|---:|---:|---|")
    all_ok = True
    for name in WORKLOAD_NAMES:
        a, b = first[name][0], second[name][0]
        for metric in END_TO_END:
            x, y = a["metrics"][metric], b["metrics"][metric]
            diff = (y - x) / min(x, y)
            exact = metric.startswith("sim_")
            ok = x == y if exact else abs(diff) <= bounds[metric]
            all_ok &= ok
            print(f"| {name} | {metric} | {x:.5f} | {y:.5f} | {diff:+.4f} | "
                  f"{'exact' if exact else format(bounds[metric], '.2f')} | "
                  f"{'ok' if ok else 'unresolved'} |")
        same = (a["digest"], a["tasks"]) == (b["digest"], b["tasks"])
        all_ok &= same and a["correct"] and b["correct"]
        print(f"| {name} | digest, tasks, failed | {a['digest']} "
              f"{a['tasks']} {a['failed']} | {b['digest']} {b['tasks']} "
              f"{b['failed']} | | exact | {'ok' if same else 'MISMATCH'} |")
        print(f"| {name} | calib_ops_per_s | {a['calib_ops_per_s']:.0f} | "
              f"{b['calib_ops_per_s']:.0f} | | | informational |")
    return all_ok


def run_spread(count: int, sizing: Sequence[str]) -> bool:
    """The acceptance check a benchmark driver applies: one run per seed,
    inter-quartile range over median per metric, against the bound."""
    bounds = load_bounds()
    print(f"Spread over seeds 1..{count}: (Q3 - Q1) / median of the "
          "per-seed values, as `statistics.quantiles(values, n=4)`.\n")
    print("| workload | metric | median | min | max | spread | bound | "
          "verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---|")
    all_ok = True
    for name in WORKLOAD_NAMES:
        runs = [run_child(name, seed, 0, sizing)
                for seed in range(1, count + 1)]
        all_ok &= all(r["correct"] for r in runs)
        for metric in END_TO_END:
            values = [r["metrics"][metric] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            if spread <= bounds[metric] / 3:
                verdict = "steady"
            elif spread <= bounds[metric]:
                verdict = "within bound"
            else:
                verdict, all_ok = "TOO WIDE", False
            print(f"| {name} | {metric} | {median:.5f} | {min(values):.5f} | "
                  f"{max(values):.5f} | {spread:.4f} | {bounds[metric]:.2f} "
                  f"| {verdict} |")
    return all_ok


# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this one workload in this process (needs "
                             "--trace) and end with the JSON contract line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time passes for about this long, at least "
                             f"{MIN_PASSES} (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end to end, 1 per layer (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"workloads at {SMOKE_SCALE} of their size for "
                             f"{SMOKE_SECONDS:g} s; overrides --seconds")
    parser.add_argument("--aa", action="store_true",
                        help="two end-to-end sets back to back at one seed, "
                             "compared with the bounds in BENCHMARK.json")
    parser.add_argument("--spread", type=int, metavar="SEEDS", default=0,
                        help="one end-to-end run per seed 1..SEEDS; spread "
                             "of each metric against its bound")
    args = parser.parse_args(argv)

    if args.smoke:
        scale, seconds, sizing = SMOKE_SCALE, SMOKE_SECONDS, ["--smoke"]
    else:
        seconds = args.seconds
        if seconds is None:
            seconds = float(load_manifest()["run_seconds"])
        scale, sizing = 1.0, ["--seconds", str(seconds)]

    if args.workload is not None:
        if args.trace is None:
            parser.error("--workload needs --trace 0 or --trace 1")
        if args.trace:
            detail = measure_per_layer(args.workload, args.seed, scale, seconds)
            print_per_layer(detail)
        else:
            detail = measure_end_to_end(args.workload, args.seed, scale,
                                        seconds)
            print_end_to_end(detail)
        adapter.OUT_DIR.mkdir(parents=True, exist_ok=True)
        with open(detail_path(args.workload, args.trace), "w",
                  encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
        print(contract_line(detail))
        return 0 if detail["correct"] else 1

    if args.aa:
        return 0 if run_aa(args.seed, sizing) else 1
    if args.spread:
        return 0 if run_spread(args.spread, sizing) else 1
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = run_set(args.seed, sizing, traces)
    return 0 if all(d["correct"] for by_trace in results.values()
                    for d in by_trace.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
