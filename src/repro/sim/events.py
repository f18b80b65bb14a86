"""Event primitives for the discrete-event kernel."""

from __future__ import annotations

import typing
from heapq import heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""

    __slots__ = ()


class _Pending:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules it on the environment's queue; when the
    environment pops it, the event is *processed* and its callbacks run.
    Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event once it is processed.  ``None``
        #: after processing (appending then is a kernel bug).
        self.callbacks: typing.Optional[list] = []
        self._value: typing.Any = PENDING
        self._ok: typing.Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> typing.Any:
        """The event's payload (or the exception if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event is not yet triggered")
        return self._value

    def succeed(self, value: typing.Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        if delay == 0.0:
            # Inlined Environment.schedule zero-delay path: succeed() with
            # no delay is the hottest call in the kernel (every store
            # hand-off and process wakeup lands here).
            env = self.env
            env._ready.append((env._seq, self))
            env._seq += 1
        else:
            self.env.schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event has the exception thrown into it.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay)
        return self

    def __repr__(self) -> str:
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: typing.Any = None) -> None:
        # Inlined Event.__init__ + Environment.schedule: one Timeout is
        # created per processed batch (the CPU-cost wait), so the extra
        # call frames showed up in profiles.
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        if delay > 0.0:
            heappush(env._timers, (env._now + delay, env._seq, self))
        else:
            env._ready.append((env._seq, self))
        env._seq += 1


class _Condition(Event):
    """Base for events composed of several child events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: typing.Iterable[Event]) -> None:
        super().__init__(env)
        self._events = tuple(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed(self._collect())
            return
        for event in self._events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _collect(self) -> dict:
        return {
            event: event.value
            for event in self._events
            if event.triggered and event.ok
        }

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds once every child event has succeeded; fails on first failure."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds as soon as one child event succeeds; fails on first failure."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed(self._collect())
