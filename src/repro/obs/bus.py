"""EventBus: the engine's SparkListener-style publish/subscribe spine.

One bus lives on every :class:`~repro.engine.context.StarkContext`.
Emission sites in the engine guard with :attr:`EventBus.active` before
constructing an event, so a context with no listeners pays nothing and
produces nothing — tracing is strictly opt-in and cannot perturb the
simulation (no listener ever charges simulated time).

A listener is either a callable taking the event, or any object with an
``on_event(event)`` method (the richer listeners — trace exporter,
sampler — use the latter).
"""

from __future__ import annotations

from typing import Any, Callable, List

from .events import Event

Listener = Any  # callable or object with .on_event


class EventBus:
    """Synchronous in-process event bus with typed events."""

    def __init__(self) -> None:
        #: Dispatch functions, in subscribe order.
        self._listeners: List[Callable[[Event], None]] = []

    def __len__(self) -> int:
        return len(self._listeners)

    @property
    def active(self) -> bool:
        """True when at least one listener is subscribed.  Emission
        sites check this before building events."""
        return bool(self._listeners)

    def subscribe(self, listener: Listener) -> Listener:
        """Register ``listener``; returns it for chaining."""
        on_event = getattr(listener, "on_event", None)
        dispatch = on_event if callable(on_event) else listener
        if not callable(dispatch):
            raise TypeError(
                f"listener must be callable or define on_event: {listener!r}"
            )
        self._listeners.append(dispatch)
        return listener

    def post(self, event: Event) -> None:
        """Deliver ``event`` to every listener, in subscribe order."""
        for dispatch in self._listeners:
            dispatch(event)
