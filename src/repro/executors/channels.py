"""Ordered, pipelined point-to-point delivery.

A :class:`WindowedSender` moves items from one node into destination
queues, overlapping up to ``window`` network transfers while preserving
FIFO delivery order per destination — the simulation-level equivalent of
a Netty connection with a bounded outstanding-message window.  The window
is what couples backpressure across the network: when downstream queues
stop draining, deliveries hold window slots and the sender blocks.
"""

from __future__ import annotations

import typing

from repro.cluster.network import NetworkFabric, TransferPurpose
from repro.sim import Environment, Event, Resource, Store
from repro.sim.events import PENDING


class _Delivery:
    """Callback-driven remote delivery (one per in-flight window slot).

    Functionally this is the generator process ``transfer -> queue.put ->
    window.release`` — but hand-compiled to three callbacks on a slotted
    object, which skips a generator frame, a Process object and a
    StopIteration unwind per remote message.  The event/sequence footprint
    is identical to the generator version it replaced (bootstrap event at
    creation, a hop on the transfer, a hop on the destination put, then a
    completion event), so simulation ordering is bit-for-bit unchanged.
    """

    __slots__ = ("sender", "transfer", "queue", "item", "completion")

    def __init__(
        self, sender: "WindowedSender", transfer: Event, queue: Store, item: typing.Any
    ) -> None:
        self.sender = sender
        self.transfer = transfer
        self.queue = queue
        self.item = item
        env = sender.env
        # Both events inlined (__new__ + slot writes): one delivery per
        # remote message makes even Event.__init__ frames measurable.
        completion = Event.__new__(Event)
        completion.env = env
        completion.callbacks = []
        completion._value = PENDING
        completion._ok = None
        self.completion = completion
        bootstrap = Event.__new__(Event)
        bootstrap.env = env
        bootstrap.callbacks = [self._on_bootstrap]
        bootstrap._ok = True
        bootstrap._value = None
        env._ready.append((env._seq, bootstrap))
        env._seq += 1

    def _on_bootstrap(self, _event: Event) -> None:
        transfer = self.transfer
        if transfer.callbacks is None:  # zero-latency fabric: already fired
            self._on_transfer(transfer)
        else:
            transfer.callbacks.append(self._on_transfer)

    def _on_transfer(self, _event: Event) -> None:
        self.queue.put(self.item).callbacks.append(self._on_put)

    def _on_put(self, _event: Event) -> None:
        sender = self.sender
        # Inlined Resource.release fast path (a held slot is guaranteed,
        # so the no-slot error check is unreachable here).
        window = sender._window
        if window._waiters:
            window._waiters.popleft().succeed()
        else:
            window._in_use -= 1
        completion = self.completion
        completion._ok = True
        completion._value = None
        env = sender.env
        env._ready.append((env._seq, completion))
        env._seq += 1


class _RemoteSend:
    """Callback registered on the window-grant event.

    Starts the network transfer and hands off to :class:`_Delivery` the
    moment the window slot is granted.  It runs during the grant event's
    processing, *before* the waiting caller's resume callback (callbacks
    fire in append order), so the transfer is issued before the caller
    continues.
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
        self.sender = sender
        self.dst_node = dst_node
        self.queue = queue
        self.item = item
        self.nbytes = nbytes
        self.purpose = purpose

    def __call__(self, _event: Event) -> None:
        sender = self.sender
        hop = sender.fabric.transfer(
            sender.src_node, self.dst_node, self.nbytes, self.purpose
        )
        _Delivery(sender, hop, self.queue, self.item)


class WindowedSender:
    """Pipelined sends from a fixed source node.

    FIFO guarantee: a single caller that issues ``send_event`` calls in
    order gets in-order delivery per (source, destination-node) pair — the
    fabric's links are FIFO and destination-store put-waiters are FIFO.
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

    def send_event(
        self,
        dst_node: int,
        queue: Store,
        item: typing.Any,
        nbytes: float,
        purpose: TransferPurpose,
    ) -> Event:
        """Deliver ``item`` into ``queue`` on ``dst_node``.

        Returns the one event to wait on: the put (local) or the window
        grant (remote, with a :class:`_RemoteSend` callback starting the
        transfer).  It fires once the send is admitted (local: enqueued;
        remote: window slot acquired and transfer started), so the caller
        can pipeline subsequent sends.
        """
        if dst_node == self.src_node:
            return queue.put(item)
        request = self._window.request()
        request.callbacks.append(
            _RemoteSend(self, dst_node, queue, item, nbytes, purpose)
        )
        return request
