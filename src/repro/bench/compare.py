"""Benchmark regression gate: compare ``BENCH_*.json`` runs to baselines.

CI runs the result-writing benchmarks with ``--bench-json-dir``, then::

    python -m repro.bench.compare benchmarks/baselines bench-results

Every ``BENCH_<name>.json`` present in the baseline directory must exist
in the current run, and every *tracked* metric (see
:data:`TRACKED_LOWER_IS_BETTER` / :data:`TRACKED_HIGHER_IS_BETTER`) must
stay within ``--threshold`` (default 15%) of its baseline value.  The
comparison prints a markdown delta table — appended to
``$GITHUB_STEP_SUMMARY`` when set — and exits non-zero on any
regression, so the job fails visibly.

Numbers drift for legitimate reasons (a new cost-model term, a retuned
workload).  When a change intentionally moves a metric, refresh the
committed baselines and review the diff like any other code change::

    STARK_BENCH_DIR=bench-results PYTHONPATH=src python -m pytest \
        benchmarks/bench_cache_policies.py benchmarks/bench_cache_broker.py
    python -m repro.bench.compare benchmarks/baselines bench-results \
        --update-baselines

``config`` subtrees are ignored: they describe the workload, not the
outcome.  Untracked numeric leaves (counts, rates the gate has no
direction for) are compared informationally but never fail the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: Metric leaf names where smaller is better (times, delays, costs).
TRACKED_LOWER_IS_BETTER = frozenset({
    "mean_delay", "p95_delay", "p99_delay",
    "mean_task_delay", "p95_task_delay", "p99_task_delay",
    "mean_makespan", "makespan",
    "worker_hours", "recompute_time",
})

#: Metric leaf names where larger is better (savings, hit rates, speedups).
TRACKED_HIGHER_IS_BETTER = frozenset({
    "hit_rate", "p99_improvement", "worker_hours_saved",
    "makespan_speedup",
})

_TINY = 1e-12


def flatten_metrics(payload: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf, skipping
    ``config`` subtrees (workload knobs, not outcomes)."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            if key == "config":
                continue
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from flatten_metrics(payload[key], path)
    elif isinstance(payload, bool):
        return
    elif isinstance(payload, (int, float)):
        yield prefix, float(payload)


def metric_direction(path: str) -> int:
    """-1 if the leaf is lower-is-better, +1 if higher-is-better,
    0 if untracked."""
    leaf = path.rsplit(".", 1)[-1]
    if leaf in TRACKED_LOWER_IS_BETTER:
        return -1
    if leaf in TRACKED_HIGHER_IS_BETTER:
        return +1
    return 0


class Delta:
    """One metric's baseline-vs-current comparison."""

    def __init__(self, bench: str, path: str, baseline: Optional[float],
                 current: Optional[float], threshold: float) -> None:
        self.bench = bench
        self.path = path
        self.baseline = baseline
        self.current = current
        self.direction = metric_direction(path)
        self.regressed = self._regressed(threshold)

    @property
    def change(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        if abs(self.baseline) <= _TINY:
            return 0.0 if abs(self.current) <= _TINY else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)

    def _regressed(self, threshold: float) -> bool:
        if self.direction == 0:
            return False
        if self.baseline is None or self.current is None:
            return True  # tracked metric vanished (or appeared) — fail loud
        change = self.change
        assert change is not None
        if self.direction < 0:  # lower is better: worse means it grew
            return change > threshold
        return change < -threshold  # higher is better: worse means it fell

    def status(self) -> str:
        if self.regressed:
            return "❌ regressed"
        if self.direction == 0:
            return "—"
        return "✅"

    def row(self) -> List[str]:
        fmt = lambda v: "missing" if v is None else f"{v:.6g}"  # noqa: E731
        change = self.change
        pct = "n/a" if change is None else (
            "inf" if change == float("inf") else f"{change:+.1%}")
        return [self.bench, self.path, fmt(self.baseline),
                fmt(self.current), pct, self.status()]


def load_bench_dir(directory: Path) -> Dict[str, Dict[str, float]]:
    """Map benchmark name -> flat metrics for every ``BENCH_*.json``."""
    out: Dict[str, Dict[str, float]] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        out[name] = dict(flatten_metrics(json.loads(path.read_text())))
    return out


def compare_dirs(baseline_dir: Path, current_dir: Path,
                 threshold: float,
                 only: Optional[List[str]] = None,
                 ) -> Tuple[List[Delta], List[str]]:
    """All deltas plus a list of problems (missing files/metrics).

    ``only`` restricts the comparison to the named benchmarks — used by
    jobs that run a subset of the suite (the sim-kernel smoke job) so
    absent results for the other baselines don't read as failures.
    Naming a benchmark with no baseline is itself a problem.
    """
    baselines = load_bench_dir(baseline_dir)
    currents = load_bench_dir(current_dir)
    deltas: List[Delta] = []
    problems: List[str] = []
    if only is not None:
        for name in only:
            if name not in baselines:
                problems.append(
                    f"--only names benchmark '{name}' but "
                    f"{baseline_dir} has no BENCH_{name}.json")
        baselines = {k: v for k, v in baselines.items() if k in only}
        currents = {k: v for k, v in currents.items() if k in only}
    if not baselines:
        problems.append(f"no BENCH_*.json baselines under {baseline_dir}")
    for bench, base_metrics in baselines.items():
        cur_metrics = currents.get(bench)
        if cur_metrics is None:
            problems.append(
                f"benchmark '{bench}' has a baseline but produced no "
                f"BENCH_{bench}.json this run")
            continue
        for path in sorted(set(base_metrics) | set(cur_metrics)):
            deltas.append(Delta(bench, path, base_metrics.get(path),
                                cur_metrics.get(path), threshold))
    for bench in sorted(set(currents) - set(baselines)):
        problems.append(
            f"benchmark '{bench}' has no committed baseline — run with "
            f"--update-baselines to add it")
    return deltas, problems


def markdown_table(deltas: List[Delta], tracked_only: bool = True) -> str:
    headers = ["benchmark", "metric", "baseline", "current", "Δ", "status"]
    rows = [d.row() for d in deltas
            if not tracked_only or d.direction != 0 or d.regressed]
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines)


def update_baselines(baseline_dir: Path, current_dir: Path,
                     only: Optional[List[str]] = None) -> List[str]:
    baseline_dir.mkdir(parents=True, exist_ok=True)
    copied = []
    for path in sorted(current_dir.glob("BENCH_*.json")):
        if only is not None and path.stem[len("BENCH_"):] not in only:
            continue
        shutil.copyfile(path, baseline_dir / path.name)
        copied.append(path.name)
    return copied


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Compare BENCH_*.json results against baselines; "
                    "exit 1 on regression.")
    parser.add_argument("baseline_dir", type=Path)
    parser.add_argument("current_dir", type=Path)
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative drift on tracked metrics "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--table-out", type=Path, default=None,
                        help="also write the markdown delta table here")
    parser.add_argument("--only", type=str, default=None,
                        help="comma-separated benchmark names; compare "
                             "(or --update-baselines) just these")
    parser.add_argument("--update-baselines", action="store_true",
                        help="copy the current BENCH_*.json files over "
                             "the baselines and exit")
    args = parser.parse_args(argv)
    only = ([name.strip() for name in args.only.split(",") if name.strip()]
            if args.only is not None else None)

    if args.update_baselines:
        copied = update_baselines(args.baseline_dir, args.current_dir,
                                  only=only)
        for name in copied:
            print(f"updated {args.baseline_dir / name}")
        if not copied:
            print(f"no BENCH_*.json found under {args.current_dir}",
                  file=sys.stderr)
            return 1
        return 0

    deltas, problems = compare_dirs(args.baseline_dir, args.current_dir,
                                    args.threshold, only=only)
    table = markdown_table(deltas)
    print(f"## Benchmark regression gate (threshold "
          f"{args.threshold:.0%})\n")
    print(table)
    for problem in problems:
        print(f"\n**problem:** {problem}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    sinks = [Path(summary_path)] if summary_path else []
    if args.table_out is not None:
        sinks.append(args.table_out)
    for sink in sinks:
        with open(sink, "a") as fh:
            fh.write(f"## Benchmark regression gate (threshold "
                     f"{args.threshold:.0%})\n\n{table}\n")
            for problem in problems:
                fh.write(f"\n**problem:** {problem}\n")

    regressions = [d for d in deltas if d.regressed]
    if regressions or problems:
        print(f"\nFAIL: {len(regressions)} regression(s), "
              f"{len(problems)} problem(s)", file=sys.stderr)
        return 1
    tracked = sum(1 for d in deltas if d.direction != 0)
    print(f"\nOK: {tracked} tracked metrics within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
