"""The simulation environment: virtual clock plus event queue."""

from __future__ import annotations

import collections
import heapq
import math
import typing

from repro.sim.events import AllOf, Event, SimulationError, Timeout, armed_error
from repro.sim.process import Process
from repro.telemetry.events import NULL_BUS


class Environment:
    """Owns virtual time and drives event processing.

    Events scheduled at equal times are processed in schedule order, which
    makes every run deterministic: the processing order is the global
    ``(time, seq)`` order of one heap keyed by time and a schedule
    counter.

    Two queues back the clock.  Future events live on a binary heap of
    ``(time, seq, event)`` tuples (``heapq``); events due now (store
    hand-offs, process wakeups: the overwhelming majority) go to a plain
    FIFO deque of bare events and skip the heap entirely.  Only heap
    pushes take a sequence number.  One invariant makes the deque's FIFO
    order the global order:

    - the clock advances only when the deque is empty, so every deque
      entry was scheduled at the current time ``now``;
    - a heap entry is never due at or before ``now`` when it is pushed
      (an event whose ``now + delay`` rounds to ``now``, a sub-ulp delay,
      goes to the deque, which is the position the heap tie-break gave
      it), so every heap entry due at ``T`` was pushed before the clock
      reached ``T`` and carries a smaller seq than any deque entry made
      at ``T``.

    So when the clock advances to ``T``, :meth:`run` moves every heap
    entry due at ``T`` into the empty deque, in heap order, and then
    drains the deque FIFO.

    Only :mod:`repro.sim` touches the queues directly; code elsewhere
    schedules future events through :meth:`schedule` or :meth:`push_at`.
    """

    __slots__ = ("_now", "_timers", "_ready", "_seq", "_processed", "telemetry")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: heapq of ``(time, seq, event)``; like the deque's entries, the
        #: events are duck-typed: the loop only reads ``callbacks``.
        self._timers: typing.List[typing.Tuple[float, int, typing.Any]] = []
        #: Bare events due at ``now``, in processing order.
        self._ready: collections.deque = collections.deque()
        self._seq = 0
        self._processed = 0
        #: The telemetry event bus threaded through the kernel: every
        #: component holding the environment reports control-plane events
        #: and spans to ``env.telemetry``.  Defaults to the no-op
        #: :data:`~repro.telemetry.events.NULL_BUS` (zero overhead);
        #: :class:`~repro.telemetry.core.Telemetry` installs a live bus
        #: when telemetry is enabled.
        self.telemetry = NULL_BUS

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events processed since construction (perf accounting)."""
        return self._processed

    # -- scheduling ------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue a triggered event for processing ``delay`` seconds from now."""
        if delay > 0.0:
            time = self._now + delay
            if time > self._now:
                heapq.heappush(self._timers, (time, self._seq, event))
                self._seq += 1
                return
            self._ready.append(event)  # sub-ulp delay: due now
        elif delay == 0.0:
            self._ready.append(event)
        else:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")

    def push_at(self, time: float, event: Event) -> None:
        """Queue a triggered event for processing at absolute virtual ``time``.

        The sanctioned future-event fast path: equivalent to
        ``schedule(event, time - now)``.  ``time == now`` goes to the ready
        deque; a time in the past raises.
        """
        if time <= self._now:
            if time == self._now:
                self._ready.append(event)
                return
            raise SimulationError(
                f"cannot schedule into the past (time={time} < now={self._now})"
            )
        heapq.heappush(self._timers, (time, self._seq, event))
        self._seq += 1

    def arm_at(self, time: float, event: Event, callback: typing.Callable) -> None:
        """:meth:`push_at` for the caller's processed ``event``, re-armed
        to succeed with ``None`` and fire ``callback`` (see
        :class:`~repro.sim.events.Event`).  The data-path loops' wake
        events.
        """
        if event.callbacks is not None:
            raise armed_error(event)
        event.callbacks = [callback]
        event._ok = True
        event._value = None
        self.push_at(time, event)

    def run(self, until: typing.Optional[float] = None) -> None:
        """Run until the queue drains, or until virtual time ``until``.

        When ``until`` is given, all events scheduled at or before that time
        are processed and the clock is left at exactly ``until``.
        """
        # The innermost loop of the whole simulator, with locals bound
        # outside it.  The clock advances only here and only with the
        # deque empty; every heap entry due at the new time then joins the
        # deque in heap order (see the class docstring).
        limit = math.inf if until is None else float(until)
        now = self._now
        if limit < now:
            raise SimulationError(f"cannot run to {until}: already at {now}")
        ready = self._ready
        popleft = ready.popleft
        timers = self._timers
        pop = heapq.heappop
        processed = 0
        try:
            while True:
                if ready:
                    event = popleft()
                elif timers and timers[0][0] <= limit:
                    now, _, event = pop(timers)
                    while timers and timers[0][0] == now:
                        ready.append(pop(timers)[2])
                    self._now = now
                else:
                    break
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
            if until is not None:
                self._now = limit
        finally:
            self._processed += processed

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: typing.Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator) -> Process:
        """Start a new process from a generator of events."""
        return Process(self, generator)

    def all_of(self, events: typing.Iterable[Event]) -> AllOf:
        """An event that fires once all ``events`` have succeeded."""
        return AllOf(self, events)
