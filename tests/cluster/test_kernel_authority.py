"""Single time authority: static scan of ``src/repro``.

The SimKernel owns the clock and all worker slot state.  These tests
grep the production sources (everything except the kernel module
itself) for writes that would bypass it:

* assignments to ``Worker.slot_free_times`` (rebinding the list or a
  ``slot_free_times[...] = ...`` element store), and
* clock mutations (``clock.advance_to`` / ``advance_by`` / ``reset``).

A third scan covers the kernel module too: no simulator module reads the
host's wall clock.  Simulated time is the only time the simulation sees;
host time is measured from outside the program (``perf/``), and only the
``bench/`` drivers, which time whole runs, may import ``time``.

A new violation shows up as a failing test with the offending
``file:line`` in the assertion message.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
KERNEL_MODULE = SRC / "cluster" / "events.py"
BENCH_PACKAGE = SRC / "bench"

# An element store or rebind: `.slot_free_times` or `.slot_free_times[...]`
# followed by an assignment operator.  The one blessed declaration in
# worker.py (`self.slot_free_times: List[float] = ...`) is annotated, so
# the `:` after the attribute keeps it out of this pattern.
SLOT_WRITE = re.compile(
    r"\.slot_free_times(\s*\[[^\]]*\])?\s*(?:[+\-*/%]|//|\*\*)?=(?!=)")

# Mutating the clock: only the kernel advances time.
CLOCK_WRITE = re.compile(
    r"\bclock\s*\.\s*(?:advance_to|advance_by|reset)\s*\(")

# Reading the host clock, or importing the module that does.  The
# trailing word boundary and the line anchor keep prose such as
# "monotonically" or "at import time" out; no leading boundary, so an
# aliased ``_perf_counter`` is still caught.
WALL_CLOCK = re.compile(
    r"(?:perf_counter|monotonic|process_time)(?:_ns)?\b"
    r"|\btime\.time(?:_ns)?\("
    r"|^\s*(?:import time\b|from time import\b)")


def production_sources():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    return [f for f in files if f != KERNEL_MODULE]


def simulator_sources():
    """Every module under ``src/repro`` except the ``bench/`` drivers."""
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    return [f for f in files if BENCH_PACKAGE not in f.parents]


def find_violations(pattern, sources=None):
    hits = []
    for path in production_sources() if sources is None else sources:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                hits.append(f"{path.relative_to(SRC)}:{lineno}: "
                            f"{line.strip()}")
    return hits


def test_scan_covers_the_tree():
    names = {p.relative_to(SRC).as_posix() for p in production_sources()}
    assert "cluster/worker.py" in names
    assert "engine/task_scheduler.py" in names
    assert "cluster/events.py" not in names
    simulator = {p.relative_to(SRC).as_posix() for p in simulator_sources()}
    assert "cluster/events.py" in simulator
    assert "obs/bus.py" in simulator
    assert "bench/harness.py" not in simulator


def test_no_slot_free_times_writes_outside_kernel():
    violations = find_violations(SLOT_WRITE)
    assert not violations, (
        "slot_free_times written outside the kernel module "
        "(use SimKernel.occupy_slot / set_slot_free_time):\n"
        + "\n".join(violations))


def test_no_clock_mutation_outside_kernel():
    violations = find_violations(CLOCK_WRITE)
    assert not violations, (
        "SimClock mutated outside the kernel module "
        "(use SimKernel.advance_to / advance_by):\n"
        + "\n".join(violations))


def test_no_wall_clock_reads_in_the_simulator():
    violations = find_violations(WALL_CLOCK, simulator_sources())
    assert not violations, (
        "host wall clock read inside the simulator (measure host time "
        "with perf/run.py --trace 1 instead):\n"
        + "\n".join(violations))


def test_patterns_catch_real_violations():
    # Guard against the patterns rotting into tautologies.
    assert SLOT_WRITE.search("worker.slot_free_times = [0.0]")
    assert SLOT_WRITE.search("w.slot_free_times[slot] = finish")
    assert SLOT_WRITE.search("w.slot_free_times[i] += wall")
    assert not SLOT_WRITE.search("free = worker.slot_free_times[slot]")
    assert not SLOT_WRITE.search(
        "self.slot_free_times: List[float] = [0.0] * self.cores")
    assert not SLOT_WRITE.search("if t == w.slot_free_times[slot]:")
    assert CLOCK_WRITE.search("cluster.clock.advance_to(5.0)")
    assert CLOCK_WRITE.search("self.clock.reset()")
    assert not CLOCK_WRITE.search("now = cluster.clock.now")
    for line in ("from time import perf_counter as _perf_counter",
                 "import time",
                 "    import time",
                 "t0 = _perf_counter()",
                 "started = time.monotonic()",
                 "cpu = time.process_time()",
                 "stamp = time.time()",
                 "stamp = time.time_ns()"):
        assert WALL_CLOCK.search(line), line
    for line in ("A monotonically advancing clock.",
                 "launch-monotonicity invariant of the event log",
                 "attached to RDD at import time (the",
                 "import timeit",
                 "from timeline import chart",
                 "finish = task.start_time + task.time",
                 "now = self.clock.now"):
        assert not WALL_CLOCK.search(line), line
