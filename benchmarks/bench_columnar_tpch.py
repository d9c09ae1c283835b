"""Columnar TPC-H: the DataFrame/SQL engine vs row-at-a-time RDDs.

One revenue-by-returnflag query (join + filter + group-by + sort) runs
over identical seeded TPC-H-style partitions through two engines: a
hand-written row RDD pipeline and the SQL text path (parse → optimize →
compile to ColumnarRDDs → vectorized numpy kernels).

Claims under test:

* value-equality — both arms produce the same flags in the same order
  with revenues equal up to float summation order;
* the columnar arm cuts *simulated* CPU at least 5x: the per-record
  vectorized rate beats the row rate by enough to swallow the fixed
  per-kernel overheads at this scale;
* the optimizer's projection pruning + filter pushdown measurably cut
  the simulated bytes scanned vs compiling the raw logical plan;
* the whole comparison is deterministic (host wall times excluded from
  the structural equality).

Host wall time per arm is printed, not gated: a ratio of two host times
on a drifting machine is not a contract (``perf/``'s ``sql_tpch``
workload with its A/A bounds is the wall-clock instrument).

With ``--bench-json-dir`` the comparison also lands in
``BENCH_columnar_tpch.json`` for the CI perf gate.
"""

import math

from repro.bench.harness import run_columnar_tpch
from repro.bench.reporting import print_table

CPU_SPEEDUP_FLOOR = 5.0   # simulated compute seconds, row / columnar


def test_columnar_tpch(run_once):
    result = run_once(run_columnar_tpch)
    row, col = result.row, result.columnar

    print_table(
        "Columnar TPC-H: revenue by return flag, row vs columnar",
        ["arm", "sim compute (ms)", "sim makespan (ms)", "input MB",
         "tasks", "host wall (ms)"],
        [[a.arm, a.compute_seconds * 1000, a.makespan * 1000,
          a.input_bytes / 1e6, a.tasks, a.wall_seconds * 1000]
         for a in (row, col)],
    )

    # Same answer from both engines: identical flag ordering, revenues
    # equal up to floating-point summation order.
    assert [r[0] for r in row.result] == [r[0] for r in col.result]
    for (_, row_rev), (_, col_rev) in zip(row.result, col.result):
        assert math.isclose(row_rev, col_rev, rel_tol=1e-9)
    revenues = [r[1] for r in col.result]
    assert revenues == sorted(revenues, reverse=True)
    assert len(col.result) == 3  # A, N, R

    # Vectorization wins where it must: simulated per-record CPU over
    # the exact same scanned rows.
    assert result.cpu_speedup >= CPU_SPEEDUP_FLOOR, (
        f"columnar sim CPU speedup {result.cpu_speedup:.2f}x "
        f"< {CPU_SPEEDUP_FLOOR}x floor")

    # Pushdown reduces what the scan reads: pruned columns + pushed
    # predicate vs the raw logical plan compiled as-is.
    assert 0 < result.pushed_bytes < result.full_scan_bytes, (
        f"pushdown did not reduce bytes read "
        f"({result.pushed_bytes} vs {result.full_scan_bytes})")


def test_columnar_tpch_deterministic():
    """Two back-to-back runs are structurally identical (small scale)."""
    kwargs = dict(num_partitions=4, orders_per_partition=200,
                  lineitems_per_partition=800, write_json=False)
    first = run_columnar_tpch(**kwargs)
    second = run_columnar_tpch(**kwargs)
    assert first == second
