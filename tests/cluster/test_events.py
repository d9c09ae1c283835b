"""Tests for the discrete-event core (SimClock, EventQueue)."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.events import EventQueue, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_to(self):
        clock = SimClock()
        assert clock.advance_to(3.5) == 3.5
        assert clock.now == 3.5

    def test_advance_to_is_monotonic(self):
        clock = SimClock()
        clock.advance_to(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_advance_to_same_time_is_noop(self):
        clock = SimClock()
        clock.advance_to(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_advance_by(self):
        clock = SimClock(1.0)
        assert clock.advance_by(0.5) == 1.5

    def test_advance_by_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_by(-0.1)

    def test_reset(self):
        clock = SimClock()
        clock.advance_to(100.0)
        clock.reset()
        assert clock.now == 0.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=30))
    def test_advance_by_accumulates(self, increments):
        clock = SimClock()
        total = 0.0
        for dt in increments:
            total += dt
            clock.advance_by(dt)
        assert clock.now == pytest.approx(total)


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(3.0, lambda: fired.append("c"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(2.0, lambda: fired.append("b"))
        q.run_all()
        assert fired == ["a", "b", "c"]

    def test_same_time_runs_in_insertion_order(self):
        q = EventQueue()
        fired = []
        for tag in "abc":
            q.schedule(1.0, lambda t=tag: fired.append(t))
        q.run_all()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_with_events(self):
        q = EventQueue()
        times = []
        q.schedule(2.0, lambda: times.append(q.clock.now))
        q.schedule(5.0, lambda: times.append(q.clock.now))
        q.run_all()
        assert times == [2.0, 5.0]

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.clock.advance_to(10.0)
        with pytest.raises(ValueError):
            q.schedule(5.0, lambda: None)

    def test_schedule_in(self):
        q = EventQueue()
        q.clock.advance_to(4.0)
        handle = q.schedule_in(2.0, lambda: None)
        assert handle.time == 6.0

    def test_schedule_in_negative_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule_in(-1.0, lambda: None)

    def test_cancel(self):
        q = EventQueue()
        fired = []
        handle = q.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        assert handle.cancelled
        q.run_all()
        assert fired == []

    def test_len_ignores_cancelled(self):
        q = EventQueue()
        h1 = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        h1.cancel()
        assert len(q) == 1

    def test_run_until_stops_at_boundary(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(3.0, lambda: fired.append(3))
        count = q.run_until(2.0)
        assert count == 1
        assert fired == [1]
        assert q.clock.now == 2.0

    def test_run_until_inclusive(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append(2))
        q.run_until(2.0)
        assert fired == [2]

    def test_events_can_schedule_events(self):
        q = EventQueue()
        fired = []

        def chain():
            fired.append(q.clock.now)
            if len(fired) < 3:
                q.schedule_in(1.0, chain)

        q.schedule(1.0, chain)
        q.run_all()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_all_guards_against_runaway(self):
        q = EventQueue()

        def forever():
            q.schedule_in(0.1, forever)

        q.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            q.run_all(max_events=100)

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(7.0, lambda: None)
        assert q.peek_time() == 7.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4),
                    min_size=1, max_size=50))
    def test_all_events_fire_in_nondecreasing_order(self, times):
        q = EventQueue()
        fired = []
        for t in times:
            q.schedule(t, lambda t=t: fired.append(t))
        q.run_all()
        assert len(fired) == len(times)
        assert fired == sorted(fired)
