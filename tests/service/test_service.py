"""DatasetService end to end: async dispatch, admission, events,
determinism.

The capstone invariant is the determinism test: a full multi-tenant run
— fair-share dispatch, quotas biting, registry dedup, jobs shedding —
produces a byte-identical JSONL event log across two executions.
"""

import io
import json

import pytest

from repro import StarkConfig, StarkContext
from repro.obs import EventCollector, validate_event_dict
from repro.obs.events import (
    DatasetDropped,
    DatasetRegistered,
    PoolWeightsUpdated,
    TenantJobAdmitted,
    TenantJobShed,
    TenantJobSubmitted,
)
from repro.obs.listeners import JsonlEventLog
from repro.service import DatasetService
from repro.service.pools import Pool
from repro.service.service import Tenant


def make_sc(**config_kwargs):
    return StarkContext(
        num_workers=2, cores_per_worker=2, memory_per_worker=1e9,
        config=StarkConfig(**config_kwargs))


def pipeline(sc, source=0):
    def gen(pid, source=source):
        return [(pid * 100 + i, (i * 31 + source) % 97)
                for i in range(50)]

    return (sc.generated(gen, 4, read_cost="disk", name=f"src{source}")
            .map(lambda kv: (kv[0], kv[1] + 1)))


def count_job(sc, handle, name):
    def job(t, i):
        sc.run_job(handle.rdd, len, submit_time=t,
                   description=f"{name}-{i}")
        return sc.metrics.last_job().finish_time

    return job


class TestConfig:
    def test_service_validates_config(self):
        sc = make_sc(scheduling_policy="wfq")
        with pytest.raises(ValueError):
            DatasetService(sc)

    def test_config_knobs_flow_through(self):
        sc = make_sc(scheduling_policy="fifo", tenant_quota_mb=2.0)
        svc = DatasetService(sc)
        assert svc.pools.policy.name == "fifo"
        assert svc.quotas.default_quota_bytes == 2e6
        assert sc.cache_manager.quotas is svc.quotas

    def test_tenant_validation(self):
        svc = DatasetService(make_sc())
        svc.create_tenant("a")
        with pytest.raises(ValueError):
            svc.create_tenant("a")
        with pytest.raises(ValueError):
            svc.create_tenant("b", max_pending_jobs=0)
        with pytest.raises(KeyError):
            svc.submit("ghost", lambda t, i: t, 0.0)


class TestDispatch:
    def test_async_submission_runs_jobs_in_sim_time(self):
        sc = make_sc()
        svc = DatasetService(sc)
        svc.create_tenant("a")
        handle = svc.register_dataset("a", "events", pipeline(sc))
        svc.submit_arrivals("a", count_job(sc, handle, "a"),
                            [0.0, 0.1, 0.2])
        svc.run()
        result = svc.result_of("a")
        assert len(result.results) == 3
        assert all(r.finish >= r.arrival for r in result.results)
        # Arrival order preserved for a single tenant.
        arrivals = [r.arrival for r in result.results]
        assert arrivals == sorted(arrivals)

    def test_fair_share_interleaves_a_burst(self):
        """Tenant b's single job does not wait out tenant a's burst."""
        delays = {}
        for policy in ("fifo", "fair"):
            sc = make_sc(scheduling_policy=policy)
            svc = DatasetService(sc)
            svc.create_tenant("a")
            svc.create_tenant("b")
            ha = svc.register_dataset("a", "ds-a", pipeline(sc, 0))
            hb = svc.register_dataset("b", "ds-b", pipeline(sc, 1))
            svc.submit_arrivals("a", count_job(sc, ha, "a"),
                                [0.0] * 30)
            svc.submit("b", count_job(sc, hb, "b"), 0.001)
            svc.run()
            delays[policy] = svc.result_of("b").results[0].delay
        assert delays["fair"] < delays["fifo"] / 4

    def test_admission_control_sheds_beyond_bound(self):
        sc = make_sc()
        svc = DatasetService(sc)
        svc.create_tenant("a", max_pending_jobs=2)
        handle = svc.register_dataset("a", "events", pipeline(sc))
        svc.submit_arrivals("a", count_job(sc, handle, "a"),
                            [0.0] * 6)
        svc.run()
        result = svc.result_of("a")
        assert result.shed_jobs > 0
        assert len(result.results) + result.shed_jobs == 6


class CountingFinish(float):
    """A finish time that counts the comparisons made against it."""

    compares = 0

    def __lt__(self, other):
        CountingFinish.compares += 1
        return float.__lt__(self, other)

    def __gt__(self, other):
        CountingFinish.compares += 1
        return float.__gt__(self, other)


class TestPendingCount:
    JOBS = 1024

    def tenant(self, finishes):
        tenant = Tenant(name="a", pool=Pool("a"))
        for i, finish in enumerate(finishes):
            tenant.record(float(i), CountingFinish(finish))
        return tenant

    def test_pending_bisects_instead_of_scanning(self):
        tenant = self.tenant(range(10, 10 + self.JOBS))
        CountingFinish.compares = 0
        assert tenant.pending(500.0) == self.JOBS - 491
        assert CountingFinish.compares <= 2 * self.JOBS.bit_length()

    def test_pending_is_exact_for_any_now(self):
        # Finishes out of arrival order, ties, and ``now`` values before
        # (late arrivals), between, on and after them.
        finishes = [(i * 37) % 101 / 4 for i in range(300)]
        tenant = self.tenant(finishes)
        tenant.pool.queue.extend([None] * 3)
        for now in [-1.0, 0.0, 3.25, 12.5, 12.6, 24.99, 25.0, 30.0]:
            running = sum(1 for f in finishes if f > now)
            assert tenant.pending(now) == 3 + running


class TestEvents:
    def run_collected(self):
        sc = make_sc(tenant_quota_mb=4.0)
        collector = EventCollector()
        sc.event_bus.subscribe(collector)
        svc = DatasetService(sc)
        svc.create_tenant("a", weight=2.0)
        svc.create_tenant("b", max_pending_jobs=1)
        ha = svc.register_dataset("a", "events", pipeline(sc, 0))
        hb = svc.register_dataset("b", "mirror", pipeline(sc, 0))
        svc.submit_arrivals("a", count_job(sc, ha, "a"), [0.0, 0.1])
        svc.submit_arrivals("b", count_job(sc, hb, "b"), [0.0] * 4)
        svc.run()
        ha.release(), hb.release()
        svc.drop_dataset("a", "events")
        svc.drop_dataset("b", "mirror")
        return collector, svc

    def test_service_events_posted(self):
        collector, svc = self.run_collected()
        assert len(collector.of_type(PoolWeightsUpdated)) == 2
        registered = collector.of_type(DatasetRegistered)
        assert [e.deduped for e in registered] == [False, True]
        assert len(collector.of_type(TenantJobSubmitted)) == 6
        shed = collector.of_type(TenantJobShed)
        assert shed and all(e.tenant == "b" for e in shed)
        assert (len(collector.of_type(TenantJobAdmitted)) + len(shed)
                == 6)
        dropped = collector.of_type(DatasetDropped)
        # The first drop defers (the shared RDD is still pinned by the
        # other name); the second one finally unpersists.
        assert [e.unpersisted for e in dropped] == [False, True]
        assert svc.result_of("b").shed_jobs == len(shed)

    def test_service_events_schema_valid(self):
        collector, _ = self.run_collected()
        for event in collector:
            record = json.loads(json.dumps(event.to_dict()))
            assert validate_event_dict(record) == [], event


def service_run(seed=7):
    """One full multi-tenant run; returns the JSONL event log bytes."""
    sc = make_sc(scheduling_policy="fair", tenant_quota_mb=1.0)
    sink = io.StringIO()
    log = JsonlEventLog(sink)
    sc.event_bus.subscribe(log)
    svc = DatasetService(sc)
    svc.create_tenant("a", weight=2.0, min_share=1)
    svc.create_tenant("b")
    svc.create_tenant("c", max_pending_jobs=2)
    ha = svc.register_dataset("a", "ds-a", pipeline(sc, 0))
    hb = svc.register_dataset("b", "ds-b", pipeline(sc, 0))  # dedup
    hc = svc.register_dataset("c", "ds-c", pipeline(sc, 1))
    svc.submit_arrivals("a", count_job(sc, ha, "a"),
                        [0.0, 0.01, 0.02, 0.5])
    svc.submit_arrivals("b", count_job(sc, hb, "b"), [0.0, 0.3])
    svc.submit_arrivals("c", count_job(sc, hc, "c"), [0.0] * 5)
    svc.run()
    ha.release(), hb.release(), hc.release()
    for tenant, name in (("a", "ds-a"), ("b", "ds-b"), ("c", "ds-c")):
        svc.drop_dataset(tenant, name)
    log.flush()
    return sink.getvalue()


class TestDeterminism:
    def test_event_log_byte_identical(self):
        first, second = service_run(), service_run()
        assert first  # the run actually logged something
        assert first == second
