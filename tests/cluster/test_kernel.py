"""SimKernel: timers, daemon events, pump, and the slot ledger.

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


class TestDaemonEvents:
    def test_run_all_ignores_pure_daemons(self):
        kernel = make_kernel()
        fired = []
        kernel.schedule(1.0, lambda: fired.append("d"), daemon=True)
        assert kernel.run_all() == 0
        assert fired == []

    def test_daemons_fire_before_regular_events(self):
        kernel = make_kernel()
        fired = []
        kernel.schedule(1.0, lambda: fired.append("daemon"), daemon=True)
        kernel.schedule(2.0, lambda: fired.append("regular"))
        kernel.run_all()
        assert fired == ["daemon", "regular"]

    def test_run_until_fires_due_daemons(self):
        kernel = make_kernel()
        fired = []
        kernel.schedule(1.0, lambda: fired.append("d"), daemon=True)
        kernel.run_until(2.0)
        assert fired == ["d"]

    def test_cancelled_regular_event_does_not_block_drain(self):
        kernel = make_kernel()
        handle = kernel.schedule(5.0, lambda: None)
        handle.cancel()
        kernel.schedule(1.0, lambda: None, daemon=True)
        assert kernel.run_all() == 0

    def test_cancel_after_fire_keeps_counter_sane(self):
        kernel = make_kernel()
        handle = kernel.schedule(1.0, lambda: None)
        kernel.run_all()
        handle.cancel()  # must not corrupt the live-event counter
        kernel.schedule(2.0, lambda: None)
        assert kernel.run_all() == 1


class TestTimers:
    def test_periodic_cadence_and_nominal_times(self):
        kernel = make_kernel()
        ticks = []
        kernel.every(2.0, ticks.append)
        kernel.run_until(7.0)
        assert ticks == [pytest.approx(2.0), pytest.approx(4.0),
                         pytest.approx(6.0)]

    def test_explicit_start(self):
        kernel = make_kernel()
        ticks = []
        kernel.every(5.0, ticks.append, start=1.0)
        kernel.run_until(7.0)
        assert ticks == [pytest.approx(1.0), pytest.approx(6.0)]

    def test_cancel_stops_ticks(self):
        kernel = make_kernel()
        ticks = []
        handle = kernel.every(1.0, ticks.append)
        kernel.run_until(2.5)
        handle.cancel()
        kernel.run_until(10.0)
        assert len(ticks) == 2

    def test_timer_does_not_keep_run_all_alive(self):
        kernel = make_kernel()
        ticks = []
        kernel.every(1.0, ticks.append)
        kernel.schedule(3.5, lambda: None)
        kernel.run_all()  # must terminate despite the repeating timer
        assert ticks == [pytest.approx(1.0), pytest.approx(2.0),
                         pytest.approx(3.0)]

    def test_late_ticks_coalesce_onto_grid(self):
        # The frontier raced 10 intervals ahead (a long synchronous job);
        # the timer fires once with its overdue nominal time, then skips
        # to the next grid point instead of replaying every missed tick.
        kernel = make_kernel()
        ticks = []
        kernel.every(1.0, ticks.append)
        kernel.advance_to(10.5)
        kernel.pump()
        assert ticks == [pytest.approx(1.0)]
        kernel.run_until(12.5)
        assert ticks[1:] == [pytest.approx(11.0), pytest.approx(12.0)]

    def test_catch_up_replays_missed_ticks(self):
        kernel = make_kernel()
        ticks = []
        kernel.every(1.0, ticks.append, catch_up=True)
        kernel.advance_to(3.5)
        kernel.run_until(3.5)
        assert ticks == [pytest.approx(1.0), pytest.approx(2.0),
                         pytest.approx(3.0)]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            make_kernel().every(0.0, lambda t: None)


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

    def test_register_with_ready_at_occupies_slots(self):
        kernel = make_kernel()
        w = Worker(7, cores=2)
        kernel.register_worker(w, ready_at=9.0)
        assert w.slot_free_times == [9.0, 9.0]
        assert kernel.earliest_free_slot(w) == (0, 9.0)

    def test_deregister_detaches(self):
        kernel, w = self.attached()
        kernel.deregister_worker(w)
        assert w._kernel is None
        # Reads fall back to the worker's own scan.
        assert w.earliest_free_time() == 0.0

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
    def test_order_holds_with_daemon_timers_interleaved(self, times):
        kernel = make_kernel()
        fired = []
        kernel.every(0.7, lambda tick: fired.append(tick))
        for t in sorted(times):
            kernel.schedule(t, lambda t=t: fired.append(t))
        kernel.run_all()
        # Delivered timestamps (nominal, for timer ticks) never decrease.
        assert fired == sorted(fired)
