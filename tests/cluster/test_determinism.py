"""Determinism: same seed + same config ⇒ byte-identical event log.

The acceptance bar for the single-kernel refactor: an open-loop run with
task failures and a worker kill and restart — arrivals and failures
sharing the one heap — must replay exactly.
Each scenario runs twice into an in-memory JSONL event log and the two
byte streams are compared verbatim.
"""

import io

from repro import StarkContext
from repro.cluster.cluster import Cluster
from repro.cluster.queueing import JobDriver
from repro.engine.context import StarkConfig
from repro.engine.failure import FailureEvent, FailureSchedule
from repro.obs.listeners import JsonlEventLog

from ..conftest import make_pairs


def full_stack_run(seed: int) -> str:
    """One open-loop run with everything enabled; returns the JSONL log."""
    cluster = Cluster(num_workers=4, cores_per_worker=2, seed=seed)
    sc = StarkContext(cluster=cluster, config=StarkConfig(
        task_failure_prob=0.1, max_task_failures=8))

    sink = io.StringIO()
    log = JsonlEventLog(sink)
    sc.event_bus.subscribe(log)

    FailureSchedule(sc, [
        # Inside the arrival window of every seed below, so the kill and
        # the restart both land mid-run.
        FailureEvent(time=1.0, worker_id=1, restart_after=1.0),
    ])

    data = make_pairs(400)

    def job(arrival, index):
        rdd = sc.parallelize(data, 8).map(lambda kv: (kv[0], kv[1] + 1))
        sc.run_job(rdd, len, submit_time=arrival,
                   description=f"det{index}")
        return sc.metrics.last_job().finish_time

    driver = JobDriver(sc, seed=seed)
    driver.run_constant_rate(job, rate_jobs_per_sec=2.0, num_jobs=12,
                             poisson=True)
    log.flush()
    return sink.getvalue()


def simple_run(seed: int) -> str:
    """A minimal kernel-driven run (no failures) for contrast."""
    sc = StarkContext(num_workers=2, cores_per_worker=2)
    sink = io.StringIO()
    log = JsonlEventLog(sink)
    sc.event_bus.subscribe(log)
    data = make_pairs(200)
    driver = JobDriver(sc, seed=seed)
    driver.run_arrivals(
        lambda t, i: (sc.run_job(sc.parallelize(data, 4), len,
                                 submit_time=t),
                      sc.metrics.last_job().finish_time)[1],
        [0.0, 0.5, 1.0, 4.0])
    log.flush()
    return sink.getvalue()


def broker_run(seed: int) -> str:
    """A cache-broker-enabled run: two structurally identical cached
    pipelines in separate jobs (prefix sharing) plus enough cached
    filler to trigger the broker's global eviction/migration market."""
    sc = StarkContext(num_workers=3, cores_per_worker=2,
                      memory_per_worker=2.5e5,
                      config=StarkConfig(cache_broker=True))
    sink = io.StringIO()
    log = JsonlEventLog(sink)
    sc.event_bus.subscribe(log)

    def source(pid: int) -> list:
        return [(pid * 100 + i, (i * seed) % 17) for i in range(200)]

    def pipeline():
        return (sc.generated(source, 6, read_cost="network", name="det-scan")
                .map(lambda kv: (kv[0], kv[1] + 1))
                .cache())

    first = pipeline()
    first.count()
    second = pipeline()
    second.count()
    for r in range(4):
        data = make_pairs(800)
        sc.parallelize(data, 3, name=f"det-filler{r}").cache().count()
    second.count()
    log.flush()
    return sink.getvalue()


class TestByteIdenticalReplay:
    def test_full_stack_log_is_byte_identical(self):
        first = full_stack_run(seed=42)
        second = full_stack_run(seed=42)
        assert first, "run produced no events"
        assert first == second
        # The replay covers what it names: the kill and the retries.
        assert '"FailureInjected"' in first
        assert '"TaskRetried"' in first

    def test_full_stack_log_is_nonempty_and_timestamped(self):
        import json

        lines = full_stack_run(seed=7).splitlines()
        assert len(lines) > 20
        events = [json.loads(line) for line in lines]
        assert all("time" in e for e in events)

    def test_different_seeds_diverge(self):
        # Sanity: the byte-compare actually has discriminating power.
        assert full_stack_run(seed=1) != full_stack_run(seed=2)

    def test_simple_run_is_byte_identical(self):
        assert simple_run(seed=11) == simple_run(seed=11)

    def test_broker_run_is_byte_identical(self):
        first = broker_run(seed=5)
        second = broker_run(seed=5)
        assert first == second
        # The run must actually exercise the broker paths it is
        # certifying: cross-job prefix serves and broker evictions.
        assert '"BrokerPrefixHit"' in first
        assert '"reason": "broker"' in first or '"BrokerEvicted"' in first
