"""Fig 11: co-locality job delay.

Paper: cogrouping N wiki-hour RDDs (~800 MB each) on 8 executors — the
Spark-H/Stark-H gap grows with N (Stark ~5x faster at N=5; the paper's
headline "reduces the job makespan by 4X").
"""


from repro.bench.harness import run_colocality
from repro.bench.reporting import print_comparison, print_table
from repro.bench.results import write_bench_json

RDD_COUNTS = (1, 2, 3, 4, 5, 6)
QUERIES_PER_POINT = 3


def test_fig11_colocality_job_delay(run_once):
    results = run_once(
        run_colocality,
        rdd_counts=RDD_COUNTS,
        queries_per_point=QUERIES_PER_POINT,
    )
    by = {}
    for r in results:
        by.setdefault(r.num_rdds, {})[r.config] = r
    rows = []
    for n in sorted(by):
        spark = by[n]["Spark-H"].job_delay
        stark = by[n]["Stark-H"].job_delay
        rows.append([n, spark, stark, spark / stark])
    print_table(
        "Fig 11: co-locality job delay (cogroup N RDDs)",
        ["rdds", "Spark-H (s)", "Stark-H (s)", "speedup"],
        rows,
    )
    write_bench_json("fig11_colocality", {
        "config": {"rdd_counts": list(RDD_COUNTS),
                   "queries_per_point": QUERIES_PER_POINT},
        "cogroup": {
            f"rdds_{n}": {
                "spark_h": {"mean_delay": spark},
                "stark_h": {"mean_delay": stark},
                "makespan_speedup": speedup,
            }
            for n, spark, stark, speedup in rows
        },
        "headline": {"makespan_speedup": max(row[3] for row in rows)},
    })
    # Shape: the gap grows with N and reaches the headline ~4x.
    speedups = [row[3] for row in rows]
    assert speedups[0] < 1.5  # single RDD: nothing to co-locate
    assert max(speedups) >= 3.0
    peak = max(speedups)
    print_comparison("headline makespan reduction",
                     "Spark-H", max(r[1] for r in rows),
                     "Stark-H", min(r[2] for r in rows))
    assert speedups[4] > speedups[1]  # monotone-ish growth to n=5
