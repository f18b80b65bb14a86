"""The simulation environment: virtual clock plus event queue."""

from __future__ import annotations

import collections
import heapq
import typing

from repro.sim.events import AllOf, Event, SimulationError, Timeout
from repro.sim.process import Process
from repro.telemetry.events import NULL_BUS


class Environment:
    """Owns virtual time and drives event processing.

    Events scheduled at equal times are processed in schedule order
    (FIFO tie-breaking via a sequence counter), which makes every run
    deterministic.

    Two queues back the clock.  Future events (``delay > 0``) live on a
    binary heap of ``(time, seq, event)`` tuples (``heapq``).  Already-due
    events (``delay == 0`` — the overwhelming majority: store hand-offs,
    process wakeups) go to a plain FIFO deque of ``(seq, event)`` instead,
    which skips the heap entirely.  The merge rule in :meth:`run` compares
    sequence numbers whenever the heap's head is due at the current time,
    so the combined processing order is exactly the global ``(time, seq)``
    order a single heap would produce:

    - every deque entry was scheduled *at* the current time, so its time
      component equals ``now``;
    - heap entries are never in the past (``delay > 0`` at insertion and
      the clock only advances by popping the heap minimum), so a heap
      entry competes with the deque only when its time == ``now`` — and
      then the smaller sequence number wins, same as the heap tie-break.

    Only :mod:`repro.sim` touches the heap directly; code elsewhere
    schedules future events through :meth:`schedule` or :meth:`push_at`.
    """

    __slots__ = ("_now", "_timers", "_ready", "_seq", "_processed", "telemetry")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: heapq of ``(time, seq, event)``; like the deque's entries, the
        #: events are duck-typed — the loop only reads ``callbacks``.
        self._timers: typing.List[typing.Tuple[float, int, typing.Any]] = []
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
            heapq.heappush(self._timers, (self._now + delay, self._seq, event))
        elif delay == 0.0:
            self._ready.append((self._seq, event))
        else:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1

    def push_at(self, time: float, event: Event) -> None:
        """Queue a triggered event for processing at absolute virtual ``time``.

        The sanctioned future-event fast path: equivalent to
        ``schedule(event, time - now)``.  ``time == now`` goes to the ready
        deque; a time in the past raises.
        """
        if time <= self._now:
            if time == self._now:
                self._ready.append((self._seq, event))
                self._seq += 1
                return
            raise SimulationError(
                f"cannot schedule into the past (time={time} < now={self._now})"
            )
        heapq.heappush(self._timers, (time, self._seq, event))
        self._seq += 1

    def run(self, until: typing.Optional[float] = None) -> None:
        """Run until the queue drains, or until virtual time ``until``.

        When ``until`` is given, all events scheduled at or before that time
        are processed and the clock is left at exactly ``until``.
        """
        # The innermost loop of the whole simulator, written out twice
        # (with and without ``until``) with locals bound outside the loop.
        # ``now`` mirrors self._now — only this loop advances the clock
        # (callbacks schedule events but never move time), so the merge
        # rule reads a local instead of a slot on every event.  A heap
        # entry beats the ready deque only when it is due now and was
        # scheduled first (smaller seq).
        ready = self._ready
        timers = self._timers
        pop = heapq.heappop
        processed = 0
        now = self._now
        try:
            if until is None:
                while True:
                    if ready:
                        if (
                            timers
                            and timers[0][0] <= now
                            and timers[0][1] < ready[0][0]
                        ):
                            now, _, event = pop(timers)
                            self._now = now
                        else:
                            _, event = ready.popleft()
                    elif timers:
                        now, _, event = pop(timers)
                        self._now = now
                    else:
                        return
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
            until = float(until)
            if until < now:
                raise SimulationError(
                    f"cannot run to {until}: already at {now}"
                )
            while True:
                if ready:
                    if (
                        timers
                        and timers[0][0] <= now
                        and timers[0][1] < ready[0][0]
                    ):
                        now, _, event = pop(timers)
                        self._now = now
                    else:
                        _, event = ready.popleft()
                elif timers and timers[0][0] <= until:
                    now, _, event = pop(timers)
                    self._now = now
                else:
                    break
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
            self._now = until
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
