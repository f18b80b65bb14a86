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
    """An occurrence in virtual time.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules it on the environment's queue; when the
    environment pops it, the event is *processed* and its callbacks run.
    Processes wait on events by ``yield``-ing them.

    Each trigger is one-shot, but the object may be recycled: once the
    run loop has processed it (``callbacks is None``), its owner may
    *re-arm* it through an arm form (:meth:`Store.arm_get`,
    :meth:`Store.arm_put`, :meth:`Resource.arm_request`,
    :meth:`Environment.arm_at`, ``NetworkFabric.transfer(event=)``) and
    wait on it again.  The data-path loops do this to skip an allocation
    per hand-off.  Arming an event that is still queued or pending
    raises :class:`SimulationError`; :func:`spare_event` makes a fresh
    event in the processed state.  Whoever re-arms an event must be its
    only waiter: a callback still holding a processed event reads the
    re-armed value.

    ``callbacks`` holds **one callable**, which the run loop calls with
    the event.  A lone waiter is stored bare (the arm forms store the
    caller's callback so); none or several share a :class:`Callbacks`,
    which runs them in append order.  Add and remove waiters with
    :func:`add_callback` and :func:`remove_callback`; never store a
    plain list.  An event whose bare callback is its own step (a
    hand-compiled hop) may declare a ``then`` slot that the step calls
    last: while ``then`` is ``None``, the first waiter added goes there,
    so the event still holds one callable.  A step that re-arms its
    event for a next step deletes an unused ``then``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: The callable invoked with this event once it is processed.
        #: ``None`` after processing (adding a waiter then is a kernel bug).
        self.callbacks: typing.Optional[typing.Callable] = Callbacks()
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
            self.env._ready.append(self)
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


class Callbacks(list):
    """Several waiters on one event, called in append order.

    The callable an event's ``callbacks`` slot holds when none or more
    than one waiter waits on it (see :class:`Event`).
    """

    __slots__ = ()

    def __call__(self, event: Event) -> None:
        for callback in self:
            callback(event)


def add_callback(event: Event, callback: typing.Callable) -> None:
    """Make ``callback`` the last waiter on the pending or queued ``event``.

    A lone waiter is stored bare.  Next to a bare one, it goes to an empty
    ``then`` slot (see :class:`Event`) or promotes the slot to a
    :class:`Callbacks`.
    """
    callbacks = event.callbacks
    if callbacks is None:
        raise SimulationError(f"{event!r} is already processed")
    if callbacks.__class__ is Callbacks:
        if callbacks:
            callbacks.append(callback)
        else:
            event.callbacks = callback
    elif getattr(event, "then", False) is None:
        event.then = callback  # type: ignore[attr-defined]
    else:
        event.callbacks = Callbacks((callbacks, callback))


def remove_callback(event: Event, callback: typing.Callable) -> bool:
    """Unhook ``callback`` from ``event``; True when it was waiting there."""
    callbacks = event.callbacks
    if callbacks.__class__ is Callbacks:
        try:
            callbacks.remove(callback)
        except ValueError:
            return False
        return True
    if callbacks is None:
        return False
    if callbacks == callback:
        event.callbacks = Callbacks()
        return True
    if getattr(event, "then", None) == callback:
        event.then = None  # type: ignore[attr-defined]
        return True
    return False


def spare_event(env: "Environment") -> Event:
    """A new event in the processed state, for its owner to arm."""
    event = Event.__new__(Event)
    event.env = env
    event.callbacks = None
    event._ok = True
    event._value = None
    return event


def armed_error(event: Event) -> SimulationError:
    """The error for arming ``event`` while it is queued or pending."""
    return SimulationError(f"cannot arm {event!r}: it is still queued or pending")


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: typing.Any = None) -> None:
        # Inlined Event.__init__ + Environment.schedule: one Timeout is
        # created per processed batch (the CPU-cost wait), so the extra
        # call frames showed up in profiles.
        if not delay >= 0:  # NaN fails this too
            raise SimulationError(
                f"timeout delay must be a non-negative number, got {delay}"
            )
        self.env = env
        self.callbacks = Callbacks()
        self.delay = delay
        self._ok = True
        self._value = value
        if delay > 0.0:
            time = env._now + delay
            if time > env._now:
                heappush(env._timers, (time, env._seq, self))
                env._seq += 1
                return
        # Due now (zero or sub-ulp delay): the ready deque, see Environment.
        env._ready.append(self)


class AllOf(Event):
    """Succeeds once every child event has succeeded; fails on first failure."""

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
                add_callback(event, self._on_child)

    def _collect(self) -> dict:
        return {
            event: event.value
            for event in self._events
            if event.triggered and event.ok
        }

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())
