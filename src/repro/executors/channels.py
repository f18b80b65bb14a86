"""Ordered, pipelined point-to-point delivery.

A :class:`WindowedSender` moves items from one node into destination
queues, overlapping up to ``window`` network transfers while preserving
FIFO delivery order per destination — the simulation-level equivalent of
a Netty connection with a bounded outstanding-message window.  The window
is what couples backpressure across the network: when downstream queues
stop draining, deliveries hold window slots and the sender blocks.

A send allocates at most one object.  A local send re-arms the caller's
own put-ack event (:meth:`WindowedSender.send`); a remote send is one
:class:`_Delivery`, an event that is re-armed through the grant, the
transfer and the put (:class:`~repro.sim.events.Event` states the
re-arm rule).
"""

from __future__ import annotations

import typing

from repro.cluster.network import NetworkFabric, TransferPurpose
from repro.sim import Environment, Event, Resource, Store
from repro.sim.events import spare_event


class _Delivery(Event):
    """One remote hop, as one event object (one per in-flight window slot).

    The generator process ``window.request -> transfer -> queue.put ->
    window.release`` hand-compiled to callbacks on the hop's own event:
    the same object serves, in turn, as the window grant, the transfer
    event and the put-ack, re-armed after each (three kernel events, one
    allocation).  The grant's first callback starts the transfer, so the
    transfer is issued before the waiting sender resumes (callbacks fire
    in append order), exactly as when each step had its own event.
    """

    __slots__ = ("sender", "dst_node", "queue", "item", "nbytes", "purpose")

    def __init__(
        self,
        sender: "WindowedSender",
        dst_node: int,
        queue: Store,
        item: typing.Any,
        nbytes: float,
        purpose: TransferPurpose,
    ) -> None:
        # Event.__init__ inlined, in the processed state the arm forms
        # require: one delivery per remote batch.
        self.env = sender.env
        self.callbacks = None
        self.sender = sender
        self.dst_node = dst_node
        self.queue = queue
        self.item = item
        self.nbytes = nbytes
        self.purpose = purpose

    def _on_grant(self, _event: Event) -> None:
        sender = self.sender
        sender.fabric.transfer(
            sender.src_node, self.dst_node, self.nbytes, self.purpose, self
        ).callbacks.append(self._on_transfer)

    def _on_transfer(self, _event: Event) -> None:
        self.queue.arm_put(self, self.item, self._on_put)

    def _on_put(self, _event: Event) -> None:
        # Inlined Resource.release fast path (a held slot is guaranteed,
        # so the no-slot error check is unreachable here).
        window = self.sender._window
        if window._waiters:
            window._waiters.popleft().succeed()
        else:
            window._in_use -= 1

    def withdraw(self) -> typing.Any:
        """Take back a send still waiting for its window grant (its
        sender died): the batch is never transferred and the grant, if
        already made, is returned.  Returns the item."""
        self.callbacks.remove(self._on_grant)
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

    __slots__ = ("env", "fabric", "src_node", "_window")

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

    @property
    def in_flight(self) -> int:
        return self._window.in_use

    def send(
        self,
        dst_node: int,
        queue: Store,
        item: typing.Any,
        nbytes: float,
        purpose: TransferPurpose,
        ack: Event,
        callback: typing.Optional[typing.Callable],
    ) -> Event:
        """Deliver ``item`` into ``queue`` on ``dst_node``.

        Returns the one event to wait on, with ``callback`` (if any) as
        its last callback: the caller's processed ``ack`` armed as the
        put (local), or a new :class:`_Delivery` waiting for its window
        grant (remote).  It fires once the send is admitted (local:
        enqueued; remote: window slot acquired and transfer started), so
        the caller can pipeline subsequent sends.
        """
        if dst_node == self.src_node:
            return queue.arm_put(ack, item, callback)
        delivery = _Delivery(self, dst_node, queue, item, nbytes, purpose)
        self._window.arm_request(delivery, delivery._on_grant)
        if callback is not None:
            delivery.callbacks.append(callback)
        return delivery

    def send_event(
        self,
        dst_node: int,
        queue: Store,
        item: typing.Any,
        nbytes: float,
        purpose: TransferPurpose,
    ) -> Event:
        """:meth:`send` with a fresh event and no callback."""
        return self.send(
            dst_node, queue, item, nbytes, purpose, spare_event(self.env), None
        )
