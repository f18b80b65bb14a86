"""Operator-level delivery targets and source instances.

A *group* represents one downstream operator to its upstream emitters: it
resolves a tuple's key to the executor owning it and delivers the batch
into that executor's input queue (over the network when the upstream
emitter and the downstream executor live on different nodes).

- :class:`ElasticGroup` / :class:`StaticGroup`: static tier-1 hash
  partition (key -> executor), fixed for the topology's lifetime.
- :class:`RCGroup`: the resource-centric operator — routing consults the
  dynamic operator-level shard map and the repartitioning gate, and tracks
  in-flight tuples so the manager can drain the operator.
- :class:`SourceInstance`: an upstream executor instance of a source
  operator, driven by a workload schedule.

The compiled loops that submit into groups live here too: the source
emit loop and the executor emitter loop submit on their own re-armed
put-ack event, falling back to a :func:`submit_when_open` process while
a gate is closed, and every compiled loop (task, receiver, emitter) dies
through :func:`stop_loop`, which hands back a batch its get took in the
crash's instant.
"""

from __future__ import annotations

import typing

from repro.cluster.network import NetworkFabric, TransferPurpose
from repro.executors.channels import WindowedSender
from repro.executors.config import SEND_WINDOW
from repro.sim import Environment, Event, Process
from repro.sim.events import spare_event
from repro.topology.batch import TupleBatch
from repro.topology.keys import executor_lookup

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.executors.elastic import ElasticExecutor
    from repro.executors.rc import RCOperatorManager


class ElasticGroup:
    """Static key partition over elastic (or static) executors.

    With a :class:`repro.executors.subspace.SubspaceRouter` attached,
    tier-1 routing goes through the (rarely updated) slot table instead
    of the bare hash, and the optional ``gate``/``in_flight`` hooks give
    the hybrid controller the global-synchronization machinery it needs
    for executor split/merge.  All three hooks default to off and cost
    nothing on the fast path.
    """

    __slots__ = ("name", "executors", "router", "gate", "in_flight", "_lookup")

    def __init__(
        self,
        name: str,
        executors: typing.Sequence["ElasticExecutor"],
        router: typing.Optional[typing.Any] = None,
    ) -> None:
        if not executors:
            raise ValueError(f"group {name!r} needs at least one executor")
        self.name = name
        self.executors = list(executors)
        self.router = router
        self.gate: typing.Optional[typing.Any] = None
        self.in_flight: typing.Optional[typing.Any] = None
        #: Tier-1 table, used when no dynamic router is attached (the
        #: executor list — and thus the static hash — is then fixed for
        #: the topology's lifetime).  Precomputed over the operator's
        #: dense key space and shared between groups with one geometry.
        self._lookup = executor_lookup(
            len(self.executors), self.executors[0].spec.key_space.num_keys
        )

    def route(self, key: int) -> "ElasticExecutor":
        if self.router is not None:
            return self.router.route(key)
        return self.executors[self._lookup[key]]

    def submit_event(
        self,
        batch: TupleBatch,
        src_node: int,
        sender: WindowedSender,
        ack: Event,
        callback: typing.Optional[typing.Callable],
    ) -> typing.Optional[Event]:
        """Deliver ``batch`` into the owning executor's input queue.

        Returns the one event to wait on, as :meth:`WindowedSender.send`
        does (the caller's processed ``ack`` armed as the put, or the
        remote send's delivery), or ``None`` when the gate is closed —
        see :func:`submit_when_open`.
        """
        gate = self.gate
        if gate is not None and gate.closed:
            return None
        router = self.router
        key = batch.key
        if router is not None:
            executor = router.route(key)
        else:
            lookup = self._lookup  # indexed inline: a frame per batch
            index = lookup.table[key] if 0 <= key < lookup.num_keys else lookup[key]
            executor = self.executors[index]
        if self.in_flight is not None:
            self.in_flight.increment()
        if executor.local_node == src_node:
            return executor.input_queue.arm_put(ack, batch, callback)
        return sender.send(
            executor.local_node,
            executor.input_queue,
            batch,
            batch.count * batch.size_bytes,
            TransferPurpose.STREAM,
            ack,
            callback,
        )


#: The static paradigm routes identically; only executor behaviour differs.
StaticGroup = ElasticGroup


class RCGroup:
    """Dynamic operator-level shard routing for the RC baseline."""

    __slots__ = ("name", "manager")

    def __init__(self, name: str, manager: "RCOperatorManager") -> None:
        self.name = name
        self.manager = manager

    @property
    def gate(self) -> typing.Any:
        """The manager's repartitioning gate (upstreams block while closed)."""
        return self.manager.gate

    def submit_event(
        self,
        batch: TupleBatch,
        src_node: int,
        sender: WindowedSender,
        ack: Event,
        callback: typing.Optional[typing.Callable],
    ) -> typing.Optional[Event]:
        """Same contract as :meth:`ElasticGroup.submit_event`."""
        manager = self.manager
        if manager.gate.closed:
            return None
        key = batch.key
        lookup = manager.shard_lookup  # indexed inline: a frame per batch
        shard_id = lookup.table[key] if 0 <= key < lookup.num_keys else lookup[key]
        executor = manager._assignment[shard_id]
        manager.record_arrival(executor, batch, shard_id)
        manager.in_flight.increment()
        if executor.node_id == src_node:
            return executor.input_queue.arm_put(ack, batch, callback)
        return sender.send(
            executor.node_id,
            executor.input_queue,
            batch,
            batch.count * batch.size_bytes,
            TransferPurpose.STREAM,
            ack,
            callback,
        )


def submit_when_open(
    group: typing.Any, batch: TupleBatch, src_node: int, sender: WindowedSender
) -> typing.Generator:
    """Submit ``batch`` to ``group``, first waiting out a closed gate.

    A generator (``yield from`` it, or run it as a process): the
    callback-compiled emitters use it only when ``submit_event`` reports
    the gate closed, so the wait costs a process frame per reopen, not
    per tuple.
    """
    while True:
        event = group.submit_event(
            batch, src_node, sender, spare_event(sender.env), None
        )
        if event is not None:
            yield event
            return
        yield group.gate.wait_open()


def stop_loop(
    loop: typing.Any, queue: typing.Any, on_get: typing.Callable,
    *callbacks: typing.Callable,
) -> typing.List[typing.Any]:
    """The compiled loops' shared kill step (crash semantics).

    Marks ``loop`` dead and unhooks whichever of ``on_get`` (its callback
    on ``queue.get()``) and ``callbacks`` sits on the event it was blocked
    on.  A get still pending on ``queue`` is withdrawn, so a later
    delivery is not swallowed by the dead loop.  A get that already fired
    was handed an item in the crash's instant, before the loop could run:
    that item is returned (as a one-item list, empty otherwise) for the
    caller to dead-letter ahead of the rest of ``queue``.
    """
    loop._dead = True
    waiting = loop._waiting
    loop._waiting = None
    if waiting is None or waiting.callbacks is None:
        return []
    for callback in (on_get, *callbacks):
        try:
            waiting.callbacks.remove(callback)
        except ValueError:
            continue
        if callback is on_get and not queue.cancel(waiting):
            return [waiting._value]
        break
    return []


class SourceInstance:
    """An executor instance of a source operator.

    Emits workload batches according to a schedule of (emit_time, batch)
    pairs.  Under backpressure the instance falls behind its schedule; the
    batches keep their nominal creation times, so queueing delay inflates
    the measured end-to-end latency exactly as an external arrival process
    would.
    """

    __slots__ = (
        "env", "name", "index", "node_id", "sender", "_groups",
        "emitted_tuples", "trace_every", "_emitted_batches",
    )

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        name: str,
        index: int,
        node_id: int,
        trace_every: int = 0,
    ) -> None:
        self.env = env
        self.name = f"{name}[{index}]"
        self.index = index
        self.node_id = node_id
        self.sender = WindowedSender(env, fabric, node_id, window=SEND_WINDOW)
        self._groups: typing.List[typing.Any] = []
        self.emitted_tuples = 0
        #: Attach a latency-breakdown trace to every Nth batch (0 = off).
        self.trace_every = trace_every
        self._emitted_batches = 0

    def connect(self, downstream_groups: typing.Sequence[typing.Any]) -> None:
        self._groups = list(downstream_groups)

    def relocate(self, node_id: int) -> None:
        """Re-host the source after its node crashed.

        The emit schedule is replayable (a Kafka-style durable input), so
        nothing is lost: the instance resumes from where it was, catching
        up on any backlog accumulated while it was down.  In-flight window
        slots of the old sender die with the old node.
        """
        self.node_id = node_id
        self.sender = WindowedSender(
            self.env,
            self.sender.fabric,
            node_id,
            window=self.sender._window.capacity,
        )

    def start(self, schedule: typing.Iterable) -> None:
        """Begin emitting; ``schedule`` yields (emit_time, TupleBatch)."""
        _SourceLoop(self, iter(schedule))

    def __repr__(self) -> str:
        return f"SourceInstance({self.name}, node={self.node_id})"


class _SourceLoop:
    """Callback-compiled source emit loop (replaces the generator).

    Drives the (emit_time, batch) schedule: sleep until the emit time if
    it is in the future, stamp admission, submit to every downstream
    group in order, repeat.  Per-batch event footprint matches the
    generator version (the timeout when ahead of schedule, one submit
    event per group); the Process frame and a generator resume per event
    disappear, and the loop re-arms its own wake and put-ack events.
    ``src.sender``/``src.node_id`` are read per batch on purpose:
    ``relocate()`` swaps them when the hosting node crashes.
    """

    __slots__ = (
        "src", "env", "schedule", "_batch", "_gi", "_wake", "_ack",
        "_on_time_cb", "_next_group_cb",
    )

    def __init__(self, src: SourceInstance, schedule: typing.Iterator) -> None:
        self.src = src
        self.env = src.env
        self.schedule = schedule
        self._batch: typing.Optional[TupleBatch] = None
        self._gi = 0
        self._wake = spare_event(src.env)
        self._ack = spare_event(src.env)
        self._on_time_cb = self._on_time
        self._next_group_cb = self._next_group
        self._pump()

    def _pump(self) -> None:
        # A trampoline, not recursion: a source with no downstream groups
        # emits its whole backlog synchronously, which must not grow the
        # stack per batch.
        env = self.env
        while True:
            try:
                emit_time, batch = next(self.schedule)
            except StopIteration:
                return  # schedule exhausted: the source simply stops
            now = env._now
            if emit_time > now:
                self._batch = batch
                # The time stays ``now + (emit_time - now)``, which may
                # round away from ``emit_time``: event order depends on it.
                env.arm_at(now + (emit_time - now), self._wake, self._on_time_cb)
                return
            self._emit(batch)
            if self._batch is not None:
                return  # waiting on a group submit event

    def _on_time(self, _event: typing.Any) -> None:
        batch = self._batch
        self._batch = None
        self._emit(batch)
        if self._batch is None:
            self._pump()

    def _emit(self, batch: TupleBatch) -> None:
        src = self.src
        batch.admitted_at = self.env._now
        src._emitted_batches += 1
        if src.trace_every and src._emitted_batches % src.trace_every == 0:
            batch.trace = {
                "created": batch.created_at,
                "admitted": batch.admitted_at,
            }
        if not src._groups:
            src.emitted_tuples += batch.count
            return
        self._batch = batch
        self._gi = 0
        self._next_group()

    def _next_group(self, _event: typing.Any = None) -> None:
        """Submit to the next group, resuming on its event; after the
        last, count the batch and pump the schedule."""
        src = self.src
        groups = src._groups
        gi = self._gi
        if gi >= len(groups):
            src.emitted_tuples += self._batch.count
            self._batch = None
            self._pump()
            return
        self._gi = gi + 1
        group = groups[gi]
        batch = self._batch
        if batch.trace is not None and gi + 1 < len(groups):
            # Every branch but the last stamps its own trace copy.
            batch = batch.branch()
        if group.submit_event(
            batch, src.node_id, src.sender, self._ack, self._next_group_cb
        ) is None:
            # The gate is closed: a short-lived process waits it open.
            self.env.process(
                submit_when_open(group, batch, src.node_id, src.sender)
            ).callbacks.append(self._next_group_cb)


class _EmitterLoop:
    """Callback-compiled emitter daemon of an elastic or RC executor.

    Pulls finished batches off the emitter queue and submits them to
    every downstream group, on its own re-armed get and put-ack events
    (a closed gate falls back to :func:`submit_when_open`).  Kill
    contract matches ``Process.kill``.
    """

    __slots__ = (
        "ex", "queue", "local_node", "sender",
        "_waiting", "_batch", "_gi", "_dead", "_get", "_ack",
        "_on_batch_cb", "_next_group_cb",
    )

    def __init__(self, executor: typing.Any) -> None:
        # ``_downstream_groups`` is read per batch through the executor:
        # start() runs before connect() wires the topology, which swaps
        # the list object.
        self.ex = executor
        self.queue = executor._emitter_queue
        self.local_node = executor.local_node
        self.sender = executor._emitter_sender
        self._batch: typing.Optional[TupleBatch] = None
        self._gi = 0
        self._dead = False
        self._get = spare_event(executor.env)
        self._ack = spare_event(executor.env)
        self._on_batch_cb = self._on_batch
        self._next_group_cb = self._next_group
        self._waiting: typing.Optional[Event] = self.queue.arm_get(
            self._get, self._on_batch_cb
        )

    def _on_batch(self, event: Event) -> None:
        if self._dead:
            return
        self._batch = event._value
        self._gi = 0
        self._next_group()

    def _next_group(self, _event: typing.Any = None) -> None:
        """Submit to the next group and wait on its event; after the
        last, wait on the next batch."""
        if self._dead:
            return
        gi = self._gi
        groups = self.ex._downstream_groups
        if gi >= len(groups):
            self._batch = None
            self._waiting = self.queue.arm_get(self._get, self._on_batch_cb)
            return
        self._gi = gi + 1
        group = groups[gi]
        batch = self._batch
        if batch.trace is not None and gi + 1 < len(groups):
            # Every branch but the last stamps its own trace copy.
            batch = batch.branch()
        event = group.submit_event(
            batch, self.local_node, self.sender, self._ack, self._next_group_cb,
        )
        if event is None:
            # The gate is closed: a short-lived process waits it open.
            event = self.ex.env.process(
                submit_when_open(group, batch, self.local_node, self.sender)
            )
            event.callbacks.append(self._next_group_cb)
        self._waiting = event

    def kill(self) -> typing.List[typing.Any]:
        """Stop the loop (crash semantics); returns the batch its get held.

        A gate wait dies with the loop: the batch it holds is never
        submitted from the dead process.
        """
        waiting = self._waiting
        held = stop_loop(self, self.queue, self._on_batch_cb, self._next_group_cb)
        if isinstance(waiting, Process):
            waiting.kill()
        return held
