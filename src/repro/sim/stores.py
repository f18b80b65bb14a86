"""Bounded FIFO channels — the backpressure primitive.

Every queue in the reproduced system (task pending queues, executor input
queues, operator channels) is a :class:`Store`.  A full store blocks the
producer's ``put`` event, which is exactly how backpressure propagates from
an overloaded task all the way back to the workload generator — the same
mechanism Storm's max-pending provides in the paper's prototype.
"""

from __future__ import annotations

import collections
import math
import typing

from repro.sim.events import (
    PENDING, Callbacks, Event, SimulationError, armed_error, spare_event,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class StoreFull(SimulationError):
    """Raised by :meth:`Store.put_nowait` when the store is at capacity."""

    __slots__ = ()


class Store:
    """A FIFO item channel with optional capacity.

    ``put`` and ``get`` return events.  Puts beyond capacity and gets on an
    empty store queue up and are served in FIFO order, which preserves tuple
    ordering — a correctness requirement for stateful stream processing
    (same-key tuples must be processed in arrival order).

    ``put``/``get`` are wrappers over their arm forms :meth:`arm_put`/
    :meth:`arm_get`, which wait on a caller-owned event.  The arm forms
    and ``put_nowait`` take fast paths (no heap traffic, direct waiter
    hand-off) that replicate the succeed ordering of the general
    :meth:`_dispatch` fixpoint loop exactly; see the invariants
    documented on :meth:`_dispatch`.
    """

    __slots__ = ("env", "capacity", "_items", "_put_waiters", "_get_waiters")

    def __init__(self, env: "Environment", capacity: float = math.inf) -> None:
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: collections.deque = collections.deque()
        self._put_waiters: collections.deque = collections.deque()
        self._get_waiters: collections.deque = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (for inspection/tests)."""
        return tuple(self._items)

    @property
    def pending_puts(self) -> int:
        """Number of producers currently blocked on a full store."""
        return len(self._put_waiters)

    def put(self, item: typing.Any) -> Event:
        """Add ``item``; the returned event fires once the item is accepted."""
        return self.arm_put(spare_event(self.env), item)

    def arm_put(
        self, event: Event, item: typing.Any,
        callback: typing.Optional[typing.Callable] = None,
    ) -> Event:
        """:meth:`put` on the caller's processed ``event``; returns it.

        ``callback`` (if any) becomes the event's one callback.  The data
        path re-arms one event per loop instead of allocating one per
        hand-off (see :class:`~repro.sim.events.Event`).
        """
        if event.callbacks is not None:
            raise armed_error(event)
        event.callbacks = Callbacks() if callback is None else callback
        env = self.env
        if len(self._items) < self.capacity:
            # Below capacity ⇒ no blocked putters ahead of us (invariant),
            # so the put is accepted immediately.  Succeed order matches
            # _dispatch: the put event first, then (if a getter was
            # blocked, which implies the buffer was empty) the first
            # getter receives this very item.
            event._ok = True
            event._value = None
            env._ready.append(event)
            if self._get_waiters:
                getter = self._get_waiters.popleft()
                getter._ok = True
                getter._value = item
                env._ready.append(getter)
            else:
                self._items.append(item)
        else:
            event._ok = None
            event._value = PENDING
            self._put_waiters.append((event, item))
        return event

    def put_nowait(self, item: typing.Any) -> None:
        """Add ``item`` immediately or raise :class:`StoreFull`."""
        if self._get_waiters:
            # Blocked getter ⇒ buffer empty (invariant) ⇒ below capacity:
            # hand the item straight to the first getter, as _dispatch
            # would after bouncing it through the buffer.
            env = self.env
            getter = self._get_waiters.popleft()
            getter._ok = True
            getter._value = item
            env._ready.append(getter)
            return
        if len(self._items) >= self.capacity:
            raise StoreFull(f"store at capacity {self.capacity}")
        self._items.append(item)

    def get(self) -> Event:
        """The returned event fires with the next item in FIFO order."""
        return self.arm_get(spare_event(self.env))

    def arm_get(
        self, event: Event, callback: typing.Optional[typing.Callable] = None
    ) -> Event:
        """:meth:`get` on the caller's processed ``event``; returns it
        (``callback`` as in :meth:`arm_put`)."""
        if event.callbacks is not None:
            raise armed_error(event)
        event.callbacks = Callbacks() if callback is None else callback
        if self._items:
            # Items buffered ⇒ no blocked getters ahead of us (invariant).
            # Succeed order matches _dispatch: the get event first, then —
            # if taking an item freed a slot of a full store — exactly one
            # blocked putter is admitted.
            env = self.env
            event._ok = True
            event._value = self._items.popleft()
            env._ready.append(event)
            if self._put_waiters and len(self._items) < self.capacity:
                putter, pitem = self._put_waiters.popleft()
                self._items.append(pitem)
                putter._ok = True
                putter._value = None
                env._ready.append(putter)
        else:
            event._ok = None
            event._value = PENDING
            self._get_waiters.append(event)
        return event

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending ``put``/``get`` event from this store's queues.

        Needed when the process that issued the request is killed: a stale
        get-waiter would otherwise be handed a later item, silently dropping
        it into a closed generator.  Returns True when the event was found
        (events belonging to other stores are ignored).
        """
        for index, waiter in enumerate(self._get_waiters):
            if waiter is event:
                del self._get_waiters[index]
                return True
        for index, (waiter, _item) in enumerate(self._put_waiters):
            if waiter is event:
                del self._put_waiters[index]
                return True
        return False

    def drain(self) -> typing.List[typing.Any]:
        """Remove and return all buffered items (crash accounting).

        Pending puts are pulled in afterwards, so producers already blocked
        on the (previously full) store complete; their items surface to
        whoever consumes the store next — typically a dead-letter reaper.
        """
        items = list(self._items)
        self._items.clear()
        self._dispatch()
        return items

    def _dispatch(self) -> None:
        """Run put/get matching to fixpoint (general path, used by drain).

        After any public call completes, two invariants hold — they are
        what makes the fast paths in :meth:`put`/:meth:`get`/
        :meth:`put_nowait` equivalent to this loop:

        - blocked putters exist only when the buffer is at capacity
          (hence non-empty, hence no blocked getters);
        - blocked getters exist only when the buffer is empty (hence
          below capacity, hence no blocked putters).
        """
        progressed = True
        while progressed:
            progressed = False
            while self._put_waiters and len(self._items) < self.capacity:
                event, item = self._put_waiters.popleft()
                self._items.append(item)
                event.succeed()
                progressed = True
            while self._get_waiters and self._items:
                event = self._get_waiters.popleft()
                event.succeed(self._items.popleft())
                progressed = True
