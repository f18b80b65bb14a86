"""A counted resource (semaphore) over virtual time."""

from __future__ import annotations

import collections
import typing

from repro.sim.events import (
    PENDING, Callbacks, Event, SimulationError, armed_error, spare_event,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class Resource:
    """``capacity`` interchangeable slots, granted in FIFO request order.

    Used for serialized resources such as a node's state-store write lock.
    Network links use an analytic FIFO model instead (see
    :mod:`repro.cluster.network`) to keep event counts low.
    """

    __slots__ = ("env", "capacity", "_in_use", "_waiters")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: collections.deque = collections.deque()

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """The returned event fires when a slot is granted."""
        return self.arm_request(spare_event(self.env))

    def arm_request(
        self, event: Event, callback: typing.Optional[typing.Callable] = None
    ) -> Event:
        """:meth:`request` on the caller's processed ``event``; returns it.

        ``callback`` (if any) becomes the event's one callback; see
        :meth:`Store.arm_put <repro.sim.stores.Store.arm_put>`.
        """
        if event.callbacks is not None:
            raise armed_error(event)
        event.callbacks = Callbacks() if callback is None else callback
        if self._in_use < self.capacity:
            self._in_use += 1
            # Inlined zero-delay succeed: a free slot is the common case
            # on the data plane (sender windows rarely fill).
            event._ok = True
            event._value = None
            self.env._ready.append(event)
        else:
            event._ok = None
            event._value = PENDING
            self._waiters.append(event)
        return event

    def cancel(self, event: Event) -> bool:
        """Withdraw a request still waiting for a slot (see
        :meth:`Store.cancel <repro.sim.stores.Store.cancel>`); True when
        it was waiting here."""
        try:
            self._waiters.remove(event)
        except ValueError:
            return False
        return True

    def release(self) -> None:
        """Return a slot, handing it to the next waiter if any."""
        if self._in_use == 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
