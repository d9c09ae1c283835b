"""Quickstart: co-locality on a dynamic dataset collection.

Loads three "hourly" datasets under one co-locality namespace, runs a
cogroup query across them, and shows the difference co-locality makes —
the same comparison as the paper's Figure 2 vs Figure 3 example.

Run:  python examples/quickstart.py
"""

from repro import DatasetCollection, HashPartitioner, StarkConfig, StarkContext


def build_collection(sc, locality: bool):
    """Load 3 datasets of (user, score) pairs, cached across the cluster."""
    part = HashPartitioner(8)
    # Stark: the collection registers the shared partitioner under a
    # namespace; the LocalityManager pins collection partitions to stable
    # executors so all three RDDs co-locate.  Plain Spark: no namespace,
    # so each RDD is co-partitioned at the call site but its partitions
    # land wherever slots happened to be free.
    hours = DatasetCollection(sc, part,
                              namespace="hours" if locality else None)
    for hour in range(3):
        data = [(f"user{i % 500}", i * hour) for i in range(5_000)]
        base = sc.parallelize(data, 8, name=f"hour-{hour}")
        hours.add(hour, base if locality else base.partition_by(part))
    return list(hours.steps.values())


def run(locality: bool) -> float:
    config = StarkConfig(
        locality_enabled=locality,
        mcf_enabled=locality,
        replication_enabled=locality,
    )
    sc = StarkContext(num_workers=8, cores_per_worker=2,
                      memory_per_worker=2e9, config=config)
    hours = build_collection(sc, locality)

    # A query spanning the collection: cogroup all hours, count users
    # whose total score exceeds a threshold.
    merged = hours[0].cogroup(*hours[1:])
    busy_users = merged.filter(
        lambda kv: sum(sum(scores) for scores in kv[1]) > 10_000
    )
    count = busy_users.count()

    job = sc.metrics.last_job()
    mode = "Stark (co-located)" if locality else "Spark (scattered)"
    print(f"{mode:22s}: {count} busy users, "
          f"query took {job.makespan * 1000:7.1f} ms simulated "
          f"(shuffle fetch {job.total_shuffle_fetch_time() * 1000:6.1f} ms)")
    return job.makespan


def main():
    print("Cogroup query over a 3-dataset collection, 8 simulated workers\n")
    spark = run(locality=False)
    stark = run(locality=True)
    print(f"\nco-locality speedup: {spark / stark:.1f}x")


if __name__ == "__main__":
    main()
