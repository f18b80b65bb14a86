"""Operator-level global synchronization.

The resource-centric repartitioning protocol must "pause all the upstream
executors sending tuples downstream" (paper §1), wait for the operator's
in-flight tuples, move state, and push new routing tables upstream.  RC
repartitioning, RC crash recovery and the hybrid controller's
split/merge are all that one protocol with a different move step in the
middle, so they share one :class:`OperatorBarrier`:

- :class:`OperatorGate` is the object emitters consult before sending to
  the operator: while closed, sends block until the gate reopens.
- :class:`InFlightCounter` counts tuples admitted but not yet processed;
  the drain step waits for it to reach zero.
- :meth:`OperatorBarrier.synchronize` runs the four phases of one round.
"""

from __future__ import annotations

import typing

from repro.cluster.network import TransferPurpose
from repro.executors.config import CONTROL_BYTES
from repro.sim import Environment, Event

#: A move step returns this when it found no capacity to move state onto:
#: the round ends in ``stalled`` and the gate reopens without a routing
#: update.
STALLED = "stalled"


class OperatorGate:
    """A reusable open/closed barrier over virtual time."""

    __slots__ = ("env", "_open_event")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._open_event: typing.Optional[Event] = None  # None = open

    @property
    def closed(self) -> bool:
        return self._open_event is not None

    def close(self) -> None:
        """Block future sends.  Idempotent."""
        if self._open_event is None:
            self._open_event = self.env.event()

    def open(self) -> None:
        """Release all blocked senders.  Idempotent."""
        if self._open_event is not None:
            event, self._open_event = self._open_event, None
            event.succeed()

    def wait_open(self) -> Event:
        """An event that fires when the gate is (or becomes) open."""
        if self._open_event is not None:
            return self._open_event
        passthrough = self.env.event()
        passthrough.succeed()
        return passthrough


class InFlightCounter:
    """Counts tuples admitted but not yet fully processed by an operator.

    The synchronization round closes the gate and then waits for this
    counter to hit zero — the "wait for all in-flight tuples" drain step.
    """

    __slots__ = ("env", "_count", "_zero_waiters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._count = 0
        self._zero_waiters: typing.List[Event] = []

    @property
    def count(self) -> int:
        return self._count

    def increment(self) -> None:
        self._count += 1

    def decrement(self) -> None:
        if self._count == 0:
            raise RuntimeError("in-flight counter underflow")
        self._count -= 1
        if self._count == 0:
            waiters, self._zero_waiters = self._zero_waiters, []
            for event in waiters:
                event.succeed()

    def forget(self, count: int = 1) -> None:
        """Drop tuples that died with crashed hardware from the ledger.

        Without this the drain step of repartitioning/recovery would wait
        forever for tuples that no longer exist.  Clamped at zero.
        """
        if count <= 0:
            return
        self._count = max(0, self._count - count)
        if self._count == 0:
            waiters, self._zero_waiters = self._zero_waiters, []
            for event in waiters:
                event.succeed()

    def wait_zero(self) -> Event:
        event = self.env.event()
        if self._count == 0:
            event.succeed()
        else:
            self._zero_waiters.append(event)
        return event


class OperatorBarrier:
    """One operator's gate, in-flight ledger and upstream control rounds."""

    #: Serial control-handling cost at the manager per upstream executor,
    #: per synchronization round (command dispatch + ack bookkeeping).
    PAUSE_HANDLING_SECONDS = 1e-3

    __slots__ = ("env", "cluster", "manager_node", "gate", "in_flight", "upstreams")

    def __init__(self, env: Environment, cluster: typing.Any, manager_node: int = 0) -> None:
        self.env = env
        self.cluster = cluster
        self.manager_node = manager_node
        self.gate = OperatorGate(env)
        self.in_flight = InFlightCounter(env)
        #: The upstream executor instances every round commands.
        self.upstreams: typing.List[typing.Any] = []

    def synchronize(
        self, move: typing.Generator, span: typing.Any
    ) -> typing.Generator:
        """Run one global-synchronization round around ``move``.

        Simulation process body: close the gate, pause every upstream,
        drain the in-flight ledger, run the ``move`` generator, push the
        routing update to every upstream, reopen the gate.  ``span``
        receives a mark per phase.  Returns the virtual time the drain
        finished, or None when ``move`` returned :data:`STALLED`.
        """
        try:
            # (a) Pause all upstream executors.
            self.gate.close()
            yield from self._control_round()
            span.mark("pause")
            # (b) Wait for all in-flight tuples to be processed.
            yield self.in_flight.wait_zero()
            drained = self.env.now
            span.mark("drain")
            # (c) The caller's state move.
            if (yield from move) == STALLED:
                return None
            span.mark("migration")
            # (d) Update the routing tables of all upstream executors.
            yield from self._control_round()
            self.gate.open()
            span.mark("routing_update")
            return drained
        finally:
            # Upstreams keep flowing after a stall or an abort instead of
            # deadlocking on a gate nobody will open.
            self.gate.open()

    def _control_round(self) -> typing.Generator:
        """One command/ack round with every upstream executor instance."""
        acks = []
        for instance in self.upstreams:
            acks.append(
                self.env.process(
                    self._command_and_ack(getattr(instance, "node_id", 0))
                )
            )
            # Serial dispatch/bookkeeping at the manager.
            yield self.env.timeout(self.PAUSE_HANDLING_SECONDS)
        if acks:
            yield self.env.all_of(acks)

    def _command_and_ack(self, upstream_node: int) -> typing.Generator:
        network = self.cluster.network
        yield network.transfer(
            self.manager_node, upstream_node, CONTROL_BYTES,
            purpose=TransferPurpose.CONTROL,
        )
        yield network.transfer(
            upstream_node, self.manager_node, CONTROL_BYTES,
            purpose=TransferPurpose.CONTROL,
        )
