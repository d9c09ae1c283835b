"""Ablation: delay-scheduling wait time (Fig 9's two extremes).

§III-C3 contrasts (a) dedicating workers to collection partitions —
perfect cache exclusivity, idle CPUs — with (b) letting any task run
anywhere — full CPU use, cache churn.  The locality-wait knob spans that
spectrum: a huge wait approximates (a), zero wait approximates (b).

The workload: a range-partitioned dataset whose first partition holds
~70% of the records (a data hotspot), queried open-loop faster than the
hot partition's pinned worker can drain.  With an infinite wait the hot
tasks serialize on that worker; with zero wait they spill to idle
workers (losing locality on the first spill, then re-caching there).
"""

import statistics

from repro import StarkConfig, StarkContext
from repro.bench.reporting import print_table
from repro.bench.results import write_bench_json
from repro.cluster.cost_model import CostModel, SimStr
from repro.engine.partitioner import StaticRangePartitioner
from repro.workloads.distributions import seeded_rng

KEY_SPACE = 1 << 12


def skewed_dataset(records=4_000, hot_fraction=0.7, seed=9):
    rng = seeded_rng("wait-data", seed)
    data = []
    for i in range(records):
        if rng.random() < hot_fraction:
            key = rng.randint(0, KEY_SPACE // 4 - 1)      # partition 0
        else:
            key = rng.randint(KEY_SPACE // 4, KEY_SPACE - 1)
        data.append((key, SimStr("v", sim_size=400)))
    return data


def run_wait_sweep(waits=(0.0, 0.05, 0.3, 5.0), num_queries=40):
    rows = []
    data = skewed_dataset()
    for wait in waits:
        sc = StarkContext(
            num_workers=4, cores_per_worker=1, memory_per_worker=2.5e9,
            cost_model=CostModel(cpu_per_record=4.0e-5),
            config=StarkConfig(locality_wait=wait),
        )
        part = StaticRangePartitioner.uniform(0, KEY_SPACE, 4)
        rdd = sc.parallelize(data, 4, partitioner=part) \
            .locality_partition_by(part, "wait").cache()
        rdd.count()

        # Open-loop arrivals at ~2.5x the hot partition's service rate.
        probe = rdd.map_values(lambda v: v)
        sc.run_job(probe, len, description="probe")
        hot_service = max(
            t.duration for t in sc.metrics.last_job().tasks
        )
        jobs_start = len(sc.metrics.jobs)
        arrival = sc.now
        for q in range(num_queries):
            arrival += hot_service * 0.4
            query = rdd.map_values(lambda v: v)
            sc.run_job(query, len, submit_time=arrival,
                       description=f"q{q}")
        jobs = sc.metrics.jobs[jobs_start:]
        delays = [j.makespan for j in jobs]
        locality = sc.metrics.locality_fractions()
        rows.append([
            wait,
            statistics.fmean(delays) * 1000,
            max(delays) * 1000,
            locality.get("PROCESS_LOCAL", 0.0),
        ])
    return rows


def test_ablation_locality_wait(run_once):
    rows = run_once(run_wait_sweep)
    print_table(
        "Ablation: delay-scheduling locality wait under a data hotspot",
        ["wait (s)", "mean delay (ms)", "max delay (ms)",
         "PROCESS_LOCAL frac"],
        rows,
    )
    write_bench_json("ablation_locality_wait", {
        "config": {"waits": [row[0] for row in rows]},
        "waits": {
            f"wait_{round(wait * 1000)}ms": {
                "mean_delay": mean_ms / 1000,
                "max_delay": max_ms / 1000,
                "process_local_fraction": local,
            }
            for wait, mean_ms, max_ms, local in rows
        },
    })
    by_wait = {row[0]: row for row in rows}
    # Huge wait = Fig 9(a): near-perfect locality...
    assert by_wait[5.0][3] >= by_wait[0.0][3]
    assert by_wait[5.0][3] > 0.9
    # ...but the hot partition's tasks serialize on one worker, so the
    # queue (mean delay) is worse than the spill-anywhere extreme's.
    assert by_wait[5.0][1] > by_wait[0.0][1]
