"""Ablation: Minimum-Contention-First vs default remote scheduling.

Under hotspot query skew, MCF steers replica-creating remote launches to
the executors caching the fewest unique collection partitions, so the
cluster-wide spread of cache contention stays tighter than with the
default pick-anyone policy.
"""

import statistics

from repro import StarkConfig, StarkContext
from repro.bench.reporting import print_table
from repro.bench.results import write_bench_json
from repro.engine.partitioner import HashPartitioner
from repro.workloads.distributions import seeded_rng


def run_mcf_ablation(mcf: bool, num_queries=60, records=3_000):
    config = StarkConfig(mcf_enabled=mcf, locality_wait=0.005)
    sc = StarkContext(num_workers=6, cores_per_worker=1,
                      memory_per_worker=2e9, config=config)
    part = HashPartitioner(6)
    rdds = []
    for i in range(3):
        data = [(f"k{j % 40}", "x" * 50) for j in range(records)]
        rdd = sc.parallelize(data, 6).locality_partition_by(
            part, "mcf-abl"
        ).cache()
        rdd.count()
        rdds.append(rdd)
    # Hotspot load: most queries hammer the same collection partitions.
    rng = seeded_rng("mcf", mcf)
    for q in range(num_queries):
        target = rdds[q % len(rdds)]
        target.filter(lambda kv: True).count()
    contention = [
        sc.locality_manager.unique_collection_partitions_cached(w)
        for w in sc.cluster.worker_ids
    ]
    delays = [j.makespan for j in sc.metrics.jobs[-num_queries:]]
    return contention, statistics.fmean(delays)


def test_ablation_mcf(run_once):
    def sweep():
        return {mcf: run_mcf_ablation(mcf) for mcf in (False, True)}

    results = run_once(sweep)
    rows = []
    for mcf, (contention, mean_delay) in results.items():
        rows.append([
            "MCF" if mcf else "default",
            max(contention), statistics.fmean(contention),
            mean_delay * 1000,
        ])
    print_table(
        "Ablation: remote policy vs cache contention",
        ["policy", "max unique cps/worker", "mean", "mean delay (ms)"],
        rows,
    )
    write_bench_json("ablation_mcf", {
        "config": {"policies": [row[0] for row in rows]},
        "policies": {
            policy: {
                "max_unique_cps_per_worker": max_cps,
                "mean_unique_cps_per_worker": mean_cps,
                "mean_delay": mean_ms / 1000,
            }
            for policy, max_cps, mean_cps, mean_ms in rows
        },
    })
    default_max = rows[0][1]
    mcf_max = rows[1][1]
    # MCF must not concentrate more unique collection partitions onto a
    # single worker than the default policy does.
    assert mcf_max <= default_max
