"""Every public name of ``repro.engine`` has a caller outside the tests.

The engine is the simulated Spark core the paper patches; its API should
be what the figures, apps, benches, examples, SQL plans and ``perf/``
workloads call, not stock-Spark breadth that only its own tests reach.
This test reads ``src/``, ``benchmarks/``, ``perf/`` and ``examples/``
with ``ast`` and fails for any public function, method or class defined
under ``src/repro/engine/`` whose name none of them uses.

A use is a name or an attribute access anywhere in those trees; an
import alone is not (``repro.engine``'s ``__init__`` re-exports every
class it has).  The names ``perf/`` pins as strings count too, since its
tracer resolves them with ``getattr``.  Matching is by name, not by type,
so a method shares a use with any equally named attribute elsewhere:
the test can miss a dead method, but never flags a live one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE = ROOT / "src" / "repro" / "engine"
CALLER_TREES = ("src", "benchmarks", "perf", "examples")

#: Engine names kept without a caller outside the tests, and why.
ALLOWED = {
    "force_checkpoint": "the paper's RDD.forceCheckpoint API (section III-E)",
    "group_by_key": "the shuffle primitive five test suites build on",
    "recovery_cut": "the oracle of what recovery of an RDD reads",
    "shuffle_boundaries": "the shuffle-release tests' reachable-shuffle oracle",
    "collect_partitions": "how tests read partition boundaries",
    "cached_bytes": "how tests read a context's resident bytes",
    "cached_partitions_of": "how tests read an RDD's resident partitions",
    "checkpoint_bytes": "how tests read an RDD's checkpointed bytes",
    "has_map_output": "how tests read the shuffle tracker's state",
    "num_outputs": "how tests count the shuffle tracker's map outputs",
    "reduce_input_bytes": "how tests read one reducer's shuffle input",
    "total_shuffle_bytes": "how tests read the tracker's resident bytes",
    "percentile_makespan": "how tests read a job-delay percentile",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions():
    """``{name: "module.Qualified.name"}`` for each public top-level
    function or class of the engine and each public method of its
    classes."""
    defined = {}
    for path in sorted(ENGINE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, DEFS):
                continue
            qualified = [node.name]
            if isinstance(node, ast.ClassDef):
                qualified += [f"{node.name}.{item.name}" for item in node.body
                              if isinstance(item, DEFS)]
            for dotted in qualified:
                name = dotted.rpartition(".")[2]
                if not name.startswith("_"):
                    defined.setdefault(name, f"{path.stem}.{dotted}")
    return defined


def _uses():
    """Every name used, attribute read and ``perf/`` string constant."""
    used = set()
    for tree_name in CALLER_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            pinned_as_strings = tree_name == "perf"
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif (pinned_as_strings and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    used.add(node.value)
    return used


def test_every_engine_name_has_a_caller():
    defined = _definitions()
    # One name of each kind, so a parse that finds nothing cannot pass.
    assert defined["StarkContext"] == "context.StarkContext"
    assert defined["run_job"] == "context.StarkContext.run_job"
    assert defined["post_order"] == "lineage.post_order"
    uses = _uses()
    assert "engine.blockstore" in uses  # perf/tracing.py's strings
    unused = sorted(qualified for name, qualified in defined.items()
                    if name not in uses and name not in ALLOWED)
    assert unused == [], f"engine names no program calls: {unused}"


def test_every_allowance_is_still_needed():
    """An allowed name that gains a caller, or is deleted, leaves the
    table, so the table only ever lists live exemptions."""
    defined, uses = _definitions(), _uses()
    stale = sorted(name for name in ALLOWED
                   if name not in defined or name in uses)
    assert stale == []
