"""Ordered, pipelined point-to-point delivery.

A :class:`WindowedSender` moves items from one node into destination
queues, overlapping up to ``window`` network transfers while preserving
FIFO delivery order per destination — the simulation-level equivalent of
a Netty connection with a bounded outstanding-message window.  The window
is what couples backpressure across the network: when downstream queues
stop draining, deliveries hold window slots and the sender blocks.

A send allocates at most one object, and a steady send none.  A local
send re-arms the caller's own put-ack event; a remote send is one
:class:`_Delivery`, an event that is re-armed through the grant, the
transfer and the put (:class:`~repro.sim.events.Event` states the
re-arm rule).  A sender keeps its finished deliveries and re-arms them
for later sends (:meth:`WindowedSender.send_remote`).
"""

from __future__ import annotations

import typing

from repro.cluster.network import NetworkFabric, TransferPurpose
from repro.sim import Callbacks, Environment, Event, Resource, Store


class _Delivery(Event):
    """One remote hop, as one event object (one per in-flight window slot).

    The generator process ``window.request -> transfer -> queue.put ->
    window.release`` hand-compiled to callbacks on the hop's own event:
    the same object serves, in turn, as the window grant, the transfer
    event and the put-ack, re-armed after each (three kernel events, one
    allocation).  The grant's one callback starts the transfer and then
    calls ``then``, the waiting sender's resume (if any), so the transfer
    is issued before the sender resumes, exactly as when each step had
    its own event.

    A hop built with a ``pool`` (its sender's free list) goes back to it
    after the put's window release, its last kernel event, and drops its
    item there; the sender re-arms it for a later send.  Only a hop sent
    with a resume callback has a pool: its sender moved on at the grant,
    so nothing reads the hop after the put.  The three step callbacks
    are bound once, when the hop is built.
    """

    __slots__ = (
        "sender", "pool", "dst_node", "queue", "item", "nbytes", "purpose",
        "then", "_on_grant_cb", "_on_transfer_cb", "_on_put_cb",
    )

    def __init__(
        self, sender: "WindowedSender", pool: typing.Optional[typing.List["_Delivery"]]
    ) -> None:
        # Event.__init__ inlined, in the processed state the arm forms
        # require; the send fills in the rest.
        self.env = sender.env
        self.callbacks = None
        self.sender = sender
        self.pool = pool
        self._on_grant_cb = self._on_grant
        self._on_transfer_cb = self._on_transfer
        self._on_put_cb = self._on_put

    def _on_grant(self, _event: Event) -> None:
        sender = self.sender
        sender.fabric.transfer(
            sender.src_node, self.dst_node, self.nbytes, self.purpose, self,
            self._on_transfer_cb,
        )
        then = self.then
        if then is None:
            # Nothing calls ``then`` after the grant: a waiter that comes
            # later must wait on the transfer, as on any other event.
            del self.then
        else:
            then(self)

    def _on_transfer(self, _event: Event) -> None:
        # Store.arm_put, inline.  The transfer left the hop processed,
        # succeeded and valueless, as a put that is accepted at once
        # leaves it; the succeed order is the one Store._dispatch
        # documents: the put first, then a blocked getter (which implies
        # an empty buffer) receives this very item.
        queue = self.queue
        items = queue._items
        if len(items) < queue.capacity:
            self.callbacks = self._on_put_cb
            ready = self.env._ready
            ready.append(self)
            getters = queue._get_waiters
            if getters:
                getter = getters.popleft()
                getter._ok = True
                getter._value = self.item
                ready.append(getter)
            else:
                items.append(self.item)
        else:
            queue.arm_put(self, self.item, self._on_put_cb)

    def _on_put(self, _event: Event) -> None:
        # Inlined Resource.release fast path (a held slot is guaranteed,
        # so the no-slot error check is unreachable here).
        window = self.sender._window
        if window._waiters:
            window._waiters.popleft().succeed()
        else:
            window._in_use -= 1
        pool = self.pool
        if pool is not None:
            self.item = None
            pool.append(self)

    def withdraw(self) -> typing.Any:
        """Take back a send still waiting for its window grant (its
        sender died): the batch is never transferred and the grant, if
        already made, is returned.  Returns the item.

        ``then`` (or no callback) takes the grant's place, so a grant
        already queued still resumes the sender, as a no-op now.  Only
        ``then`` may wait on a withdrawn delivery, and it never goes
        back to its pool.
        """
        then = self.then
        self.callbacks = Callbacks() if then is None else then
        window = self.sender._window
        if not window.cancel(self):
            window.release()
        return self.item


class WindowedSender:
    """Pipelined sends from a fixed source node.

    FIFO guarantee: a single caller that issues sends in order gets
    in-order delivery per (source, destination-node) pair — the fabric's
    links are FIFO and destination-store put-waiters are FIFO.
    Same-node sends bypass the network and block directly on the queue.
    """

    __slots__ = ("env", "fabric", "src_node", "_window", "_free")

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        src_node: int,
        window: int = 32,
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.src_node = src_node
        self._window = Resource(env, capacity=window)
        #: Finished deliveries, re-armed by :meth:`send_remote`: at most
        #: one per window slot and per caller waiting for one.
        self._free: typing.List[_Delivery] = []

    @property
    def in_flight(self) -> int:
        return self._window.in_use

    def send_remote(
        self,
        dst_node: int,
        queue: Store,
        item: typing.Any,
        nbytes: float,
        purpose: TransferPurpose,
        then: typing.Optional[typing.Callable],
    ) -> _Delivery:
        """Deliver ``item`` into ``queue`` on another node, ``dst_node``.

        Returns the :class:`_Delivery` waiting for its window grant, with
        ``then`` (if any) as the waiter it resumes once the send is
        admitted (window slot acquired and transfer started), so the
        caller can pipeline subsequent sends.  With ``then``, the hop is
        a finished one of this sender's, re-armed, and goes back to it
        after its put: the caller must not touch it past ``then``.
        """
        if then is None:
            hop = _Delivery(self, None)
        else:
            free = self._free
            hop = free.pop() if free else _Delivery(self, free)
        hop.dst_node = dst_node
        hop.queue = queue
        hop.item = item
        hop.nbytes = nbytes
        hop.purpose = purpose
        hop.then = then
        window = self._window
        if hop.callbacks is None and window._in_use < window.capacity:
            # Resource.arm_request's free-slot branch, inline: a free slot
            # is the common case (sender windows rarely fill).  A hop
            # still armed takes the general path, which raises.
            window._in_use += 1
            hop.callbacks = hop._on_grant_cb
            hop._ok = True
            hop._value = None
            self.env._ready.append(hop)
        else:
            window.arm_request(hop, hop._on_grant_cb)
        return hop

    def send_event(
        self,
        dst_node: int,
        queue: Store,
        item: typing.Any,
        nbytes: float,
        purpose: TransferPurpose,
    ) -> Event:
        """Deliver ``item`` into ``queue`` on ``dst_node``; returns a fresh
        event, which fires once the send is admitted (local: enqueued;
        remote: as in :meth:`send_remote`).  Its holder may keep it: it
        is never re-armed."""
        if dst_node == self.src_node:
            return queue.put(item)
        return self.send_remote(dst_node, queue, item, nbytes, purpose, None)
