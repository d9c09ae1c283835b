"""SimKernel: time authority, the run_all drain, pump, and the slot ledger.

The EventQueue primitives are covered by test_events.py; this file tests
what the kernel adds on top — plus the property test that event delivery
order is (time, sequence)-deterministic.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.events import SimKernel, TIME_EPS
from repro.cluster.worker import Worker


def make_kernel():
    return SimKernel()


class TestTimeAuthority:
    def test_now_tracks_clock(self):
        kernel = make_kernel()
        assert kernel.now == 0.0
        kernel.advance_to(4.0)
        assert kernel.now == 4.0
        kernel.advance_by(1.5)
        assert kernel.now == 5.5

    def test_advance_backwards_raises(self):
        kernel = make_kernel()
        kernel.advance_to(10.0)
        with pytest.raises(ValueError):
            kernel.advance_to(5.0)

    def test_advance_within_eps_is_noop(self):
        kernel = make_kernel()
        kernel.advance_to(10.0)
        # Sub-epsilon backwards motion is float noise, not an error.
        assert kernel.advance_to(10.0 - TIME_EPS / 2) == 10.0

    def test_pump_fires_due_events(self):
        kernel = make_kernel()
        fired = []
        kernel.schedule(3.0, lambda: fired.append(3.0))
        kernel.schedule(8.0, lambda: fired.append(8.0))
        kernel.advance_to(5.0)
        assert kernel.pump() == 1
        assert fired == [3.0]

    def test_pump_is_not_reentrant(self):
        kernel = make_kernel()
        nested = []
        kernel.schedule(1.0, lambda: nested.append(kernel.pump()))
        assert kernel.run_until(2.0) == 1
        # The inner pump no-ops: the outer loop is already delivering.
        assert nested == [0]

    def test_reset_clears_heap_and_clock(self):
        kernel = make_kernel()
        kernel.schedule(5.0, lambda: None)
        kernel.advance_to(3.0)
        kernel.reset()
        assert kernel.now == 0.0
        assert len(kernel) == 0
        assert kernel.run_all() == 0


class TestDrain:
    def test_run_all_drains_events_scheduled_by_callbacks(self):
        kernel = make_kernel()
        fired = []

        def first():
            fired.append("first")
            kernel.schedule(3.0, lambda: fired.append("chained"))

        kernel.schedule(1.0, first)
        kernel.schedule(2.0, lambda: fired.append("second"))
        assert kernel.run_all() == 3
        assert fired == ["first", "second", "chained"]
        assert len(kernel) == 0

    def test_cancelled_event_does_not_block_drain(self):
        kernel = make_kernel()
        handle = kernel.schedule(5.0, lambda: None)
        handle.cancel()
        assert kernel.run_all() == 0
        assert len(kernel) == 0

    def test_cancel_after_fire_keeps_counter_sane(self):
        kernel = make_kernel()
        handle = kernel.schedule(1.0, lambda: None)
        kernel.run_all()
        handle.cancel()  # must not corrupt the cancelled-event counter
        kernel.schedule(2.0, lambda: None)
        assert kernel.run_all() == 1


class TestSlotLedger:
    def attached(self, cores=2):
        kernel = make_kernel()
        worker = Worker(0, cores=cores)
        kernel.register_worker(worker)
        return kernel, worker

    def test_occupy_pushes_free_time(self):
        kernel, w = self.attached()
        finish = kernel.occupy_slot(w, 0, 1.0, 3.0)
        assert finish == 4.0
        assert w.slot_free_times[0] == 4.0

    def test_cached_min_tracks_occupancy(self):
        kernel, w = self.attached(cores=3)
        kernel.occupy_slot(w, 0, 0.0, 5.0)
        kernel.occupy_slot(w, 1, 0.0, 2.0)
        assert kernel.earliest_free_slot(w) == (2, 0.0)
        kernel.occupy_slot(w, 2, 0.0, 7.0)
        assert kernel.earliest_free_slot(w) == (1, 2.0)

    def test_run_on_earliest_slot_queues(self):
        kernel, w = self.attached(cores=1)
        assert kernel.run_on_earliest_slot(w, 0.0, 5.0) == (0.0, 5.0)
        assert kernel.run_on_earliest_slot(w, 1.0, 2.0) == (5.0, 7.0)

    def test_set_slot_free_time_invalidates_cache(self):
        kernel, w = self.attached(cores=2)
        kernel.occupy_slot(w, 0, 0.0, 1.0)
        kernel.occupy_slot(w, 1, 0.0, 2.0)
        assert kernel.earliest_free_slot(w) == (0, 1.0)
        kernel.set_slot_free_time(w, 1, 0.5)  # lowers the minimum
        assert kernel.earliest_free_slot(w) == (1, 0.5)

    def test_kill_and_restart_update_cache(self):
        kernel, w = self.attached()
        kernel.occupy_slot(w, 0, 0.0, 3.0)
        kernel.kill_worker(w)
        assert kernel.earliest_free_time(w) == float("inf")
        with pytest.raises(RuntimeError):
            kernel.occupy_slot(w, 0, 4.0, 1.0)
        kernel.advance_to(6.0)
        kernel.restart_worker(w)
        assert kernel.earliest_free_time(w) == 6.0

    def test_worker_reads_delegate_to_kernel(self):
        kernel, w = self.attached(cores=2)
        kernel.occupy_slot(w, 0, 0.0, 4.0)
        assert w.earliest_free_slot() == (1, 0.0)
        assert w.earliest_free_time() == 0.0


class TestDeliveryOrderProperty:
    """Kernel delivery is sorted by (time, sequence number): timestamps
    are non-decreasing and same-time events fire in insertion order."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=50,
    ))
    def test_timestamps_non_decreasing_ties_by_seq(self, times):
        kernel = make_kernel()
        fired = []
        for seq, t in enumerate(times):
            kernel.schedule(
                t, lambda t=t, seq=seq: fired.append((t, seq)))
        kernel.run_all()
        assert len(fired) == len(times)
        assert fired == sorted(fired, key=lambda item: (item[0], item[1]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.floats(min_value=0.1, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=10,
    ))
    def test_order_holds_with_chained_events(self, times):
        kernel = make_kernel()
        fired = []
        end = max(times)

        def tick(t=0.7):
            fired.append(t)
            if t + 0.7 <= end:
                kernel.schedule(t + 0.7, lambda: tick(t + 0.7))

        kernel.schedule(0.7, tick)
        for t in sorted(times):
            kernel.schedule(t, lambda t=t: fired.append(t))
        kernel.run_all()
        # Delivered timestamps never decrease.
        assert fired == sorted(fired)
