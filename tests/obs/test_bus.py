"""EventBus subscribe/post semantics."""

import pytest

from repro.obs import EventBus
from repro.obs.events import CacheMiss


def miss(t=0.0):
    return CacheMiss(time=t, worker_id=0, rdd_id=1, partition=2)


class TestEventBus:
    def test_inactive_until_subscribed(self):
        bus = EventBus()
        assert not bus.active
        assert len(bus) == 0
        received = []
        bus.subscribe(received.append)
        assert bus.active
        assert len(bus) == 1

    def test_callable_listener(self):
        bus = EventBus()
        received = []
        bus.subscribe(received.append)
        event = miss()
        bus.post(event)
        assert received == [event]

    def test_on_event_listener(self):
        class Listener:
            def __init__(self):
                self.events = []

            def on_event(self, event):
                self.events.append(event)

        bus = EventBus()
        listener = bus.subscribe(Listener())
        bus.post(miss())
        assert len(listener.events) == 1

    def test_non_listener_rejected(self):
        with pytest.raises(TypeError):
            EventBus().subscribe(object())

    def test_delivery_in_subscribe_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("a"))
        bus.subscribe(lambda e: order.append("b"))
        bus.post(miss())
        assert order == ["a", "b"]
