"""Sliding-window queries over the merged taxi + Twitter feed (§IV-E).

Ingests the paper's merged stream step by step into a DatasetCollection
under a shared co-locality namespace, keeps the last eight steps cached
(older ones are unpersisted as the window slides), and answers region
queries that cogroup the most recent steps — the workload behind
Figs 19/20.

Run:  python examples/streaming_window.py
"""

import random

from repro import DatasetCollection, StarkContext, StaticRangePartitioner
from repro.workloads.taxi import TaxiTrace, TaxiTraceConfig
from repro.workloads.twitter import MergedTaxiTwitterTrace


def main():
    taxi = TaxiTrace(TaxiTraceConfig(
        base_events_per_step=1_500, record_bytes=10_000,
    ))
    trace = MergedTaxiTwitterTrace(taxi)
    partitioner = StaticRangePartitioner.uniform(
        0, taxi.encoder.key_space(), 16,
    )
    sc = StarkContext(num_workers=8, cores_per_worker=2,
                      memory_per_worker=3e9)
    feed = DatasetCollection(sc, partitioner, namespace="feed", window=8)

    rng = random.Random(3)
    print("step | window | region events | query ms")
    print("-" * 45)
    for step in range(10):
        feed.add(step, sc.generated(
            trace.step_generator(step, partitioner.num_partitions,
                                 partitioner),
            partitioner.num_partitions, partitioner=partitioner,
            read_cost="network", name=f"feed{step}",
        ))
        window = [feed.steps[s] for s in sorted(feed.steps)[-4:]]
        lo, hi = taxi.random_region_query(rng)
        # One cogroup over the window: narrow and fully local, because
        # every step shares the namespace's partitioner and executors.
        merged = window[0].cogroup(*window[1:])
        region = merged.filter(lambda kv: lo <= kv[0] <= hi)
        matches = sum(
            region.map(lambda kv: sum(len(vals) for vals in kv[1])).collect()
        )
        delay = sc.metrics.last_job().makespan
        print(f"{step:4d} | {len(window):6d} | {matches:14d} "
              f"| {delay * 1000:8.1f}")

    print("\nRetained steps:", sorted(feed.steps))
    print("Locality of the last query:",
          sc.metrics.locality_fractions())


if __name__ == "__main__":
    main()
