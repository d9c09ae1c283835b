"""Tests for the open-loop job driver and its response-time aggregate."""

import pytest

from repro import StarkContext
from repro.cluster.queueing import JobDriver, LoadResult

from ..conftest import make_pairs


def simple_job(sc, work_records=800):
    data = make_pairs(work_records)

    def job(arrival, index):
        rdd = sc.parallelize(data, 4).map(lambda kv: kv)
        sc.run_job(rdd, len, submit_time=arrival, description=f"j{index}")
        return sc.metrics.last_job().finish_time

    return job


class TestJobDriver:
    def test_arrivals_are_spaced(self):
        sc = StarkContext(num_workers=2, cores_per_worker=2)
        driver = JobDriver(sc, seed=1)
        result = driver.run_constant_rate(simple_job(sc), 10.0, 10,
                                          poisson=False)
        arrivals = [r.arrival for r in result.results]
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(g == pytest.approx(0.1) for g in gaps)

    def test_delays_non_negative(self):
        sc = StarkContext(num_workers=2, cores_per_worker=2)
        driver = JobDriver(sc, seed=2)
        result = driver.run_constant_rate(simple_job(sc), 5.0, 8)
        assert all(r.delay >= 0 for r in result.results)

    def test_saturation_grows_delay(self):
        """Submitting far beyond capacity must queue jobs up."""
        sc = StarkContext(num_workers=1, cores_per_worker=1)
        driver = JobDriver(sc, seed=3)
        result = driver.run_constant_rate(simple_job(sc, 4000), 1000.0, 12,
                                          poisson=False)
        delays = [r.delay for r in result.results]
        assert delays[-1] > delays[0]

    def test_light_load_delay_stable(self):
        sc = StarkContext(num_workers=4, cores_per_worker=2)
        driver = JobDriver(sc, seed=4)
        result = driver.run_constant_rate(simple_job(sc, 100), 0.5, 10,
                                          poisson=False)
        delays = [r.delay for r in result.results]
        assert max(delays) < 2 * min(delays) + 1e-6

    def test_run_arrivals_sorted(self):
        sc = StarkContext(num_workers=2, cores_per_worker=2)
        driver = JobDriver(sc, seed=5)
        result = driver.run_arrivals(simple_job(sc, 50), [3.0, 1.0, 2.0])
        assert [r.arrival for r in result.results] == [1.0, 2.0, 3.0]

    def test_invalid_rate(self):
        sc = StarkContext(num_workers=1)
        driver = JobDriver(sc)
        with pytest.raises(ValueError):
            driver.run_constant_rate(lambda a, i: a, 0.0, 1)

    def test_every_arrival_runs_none_is_shed(self):
        # JobDriver queues without bound: a job is never turned away,
        # however deep the backlog behind it.
        sc = StarkContext(num_workers=1)
        driver = JobDriver(sc)
        result = driver.run_arrivals(lambda t, i: t + 100.0,
                                     [float(i) for i in range(10)])
        assert result.shed_jobs == 0
        assert len(result.results) == 10


class TestLoadResult:
    def make(self, delays):
        result = LoadResult(1.0)
        from repro.cluster.queueing import ArrivalResult

        for i, d in enumerate(delays):
            result.results.append(ArrivalResult(arrival=i, finish=i + d))
        return result

    def test_mean(self):
        assert self.make([1.0, 3.0]).mean_delay == 2.0

    def test_p95(self):
        # Nearest-rank: the smallest delay with >= 95% of the sample at
        # or below it — delays 0..99 give 94.0 (95 values <= 94.0).
        result = self.make([float(i) for i in range(100)])
        assert result.p95_delay == 94.0

    def test_p99(self):
        result = self.make([float(i) for i in range(100)])
        assert result.p99_delay == 98.0

    def test_p95_small_sample_not_max(self):
        # The old truncation indexing returned the maximum for p50 of
        # two samples; nearest-rank must return the lower one.
        result = self.make([1.0, 9.0])
        assert result.delay_percentile(50.0) == 1.0

    def test_max(self):
        assert self.make([1.0, 7.0, 2.0]).max_delay == 7.0

    def test_empty(self):
        empty = LoadResult(1.0)
        assert empty.mean_delay == 0.0
        assert empty.p95_delay == 0.0
        assert empty.p99_delay == 0.0
        assert empty.max_delay == 0.0
