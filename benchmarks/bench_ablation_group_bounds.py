"""Ablation: group split/merge thresholds (§III-C2's configurables).

Sweeps the max-group-size bound on the skewed-hours workload.  Tight
bounds split aggressively (better balance, more tasks / scheduling
overhead); loose bounds degenerate toward static groups.
"""

import statistics

from repro import DatasetCollection, StarkConfig
from repro.bench.configs import STARK_E, ClusterSpec, make_setup
from repro.bench.harness import KEY_SPACE, skewed_hour_generator
from repro.bench.reporting import print_table
from repro.cluster.cost_model import CostModel


def run_bounds_sweep(multipliers=(0.5, 1.0, 2.0, 4.0), records_per_hour=4_000,
                     num_partitions=16, groups=4):
    spec = ClusterSpec(
        num_workers=8, cores_per_worker=2, memory_per_worker=4e9,
        cost_model=CostModel(cpu_per_record=2.0e-5,
                             shuffle_cpu_per_record=4.0e-5),
    )
    payload = 4_000
    hour_bytes = records_per_hour * payload
    balanced_share = hour_bytes * 6 / groups
    rows = []
    for mult in multipliers:
        stark_config = StarkConfig(
            max_group_mem_size=balanced_share * mult,
            min_group_mem_size=balanced_share * mult / 4,
            group_size_window=6,
        )
        setup = make_setup(
            STARK_E, spec, num_partitions=num_partitions,
            key_lo=0, key_hi=KEY_SPACE, groups=groups,
            partitions_per_group=num_partitions // groups,
            stark_config=stark_config,
        )
        sc = setup.context
        part = setup.partitioner
        hours = DatasetCollection(sc, part, namespace="bounds")
        for hour in range(3, 6):  # the skewed hours
            gen = skewed_hour_generator(hour, part.num_partitions, part,
                                        records_per_hour, payload)
            hours.add(hour, sc.generated(gen, part.num_partitions,
                                         partitioner=part, read_cost="disk"))
        rdds = list(hours.steps.values())
        delays = []
        for _ in range(3):
            cg = rdds[0].cogroup(*rdds[1:])
            cg.map(lambda kv: len(kv[1])).count()
            delays.append(sc.metrics.last_job().makespan)
        stats = sc.group_manager.stats("bounds")
        rows.append([mult, stats["groups"], stats["splits"], stats["merges"],
                     delays[0], statistics.fmean(delays[1:])])
    return rows


def test_ablation_group_bounds(run_once):
    rows = run_once(run_bounds_sweep)
    print_table(
        "Ablation: group size bound (x balanced share)",
        ["bound x", "groups", "splits", "merges", "1st job (s)",
         "steady (s)"],
        rows,
    )
    by_mult = {row[0]: row for row in rows}
    # Tighter bounds produce more groups.
    assert by_mult[0.5][1] >= by_mult[4.0][1]
    # Some splitting happens at the tight end on skewed data.
    assert by_mult[0.5][2] > 0
