"""Operator-level delivery targets and source instances.

A *group* represents one downstream operator to its upstream emitters: it
resolves a tuple's key to the executor owning it and delivers the batch
into that executor's input queue (over the network when the upstream
emitter and the downstream executor live on different nodes).

- :class:`ElasticGroup`: the elastic and static paradigms' tier-1 hash
  partition (key -> executor), fixed for the topology's lifetime.
- :class:`RCGroup`: the resource-centric operator — routing consults the
  dynamic operator-level shard map and the repartitioning gate, and tracks
  in-flight tuples so the manager can drain the operator.
- :class:`SourceInstance`: an upstream executor instance of a source
  operator, driven by a workload schedule.

The compiled loops that submit into groups live here too: the source
emit loop and the executor emitter loop submit on their own re-armed
put-ack event, falling back to a :func:`submit_when_open` process while
an RC gate is closed, and every compiled loop (task, receiver, emitter)
dies through :func:`stop_loop`, which hands back a batch its get took in
the crash's instant.
"""

from __future__ import annotations

import typing

from repro.cluster.network import NetworkFabric, TransferPurpose
from repro.executors.channels import WindowedSender
from repro.executors.config import SEND_WINDOW
from repro.sim import Environment, Event, Process, add_callback, remove_callback
from repro.sim.events import spare_event
from repro.topology.batch import TupleBatch
from repro.topology.keys import executor_lookup

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.executors.elastic import ElasticExecutor
    from repro.executors.rc import RCOperatorManager


class ElasticGroup:
    """Static key partition over elastic (or static) executors.

    The executor list, and so the tier-1 hash, is fixed for the
    topology's lifetime: the operator never pauses its upstreams.
    """

    __slots__ = ("name", "executors", "_lookup")

    def __init__(
        self, name: str, executors: typing.Sequence["ElasticExecutor"]
    ) -> None:
        if not executors:
            raise ValueError(f"group {name!r} needs at least one executor")
        self.name = name
        self.executors = list(executors)
        #: Tier-1 table, precomputed over the operator's dense key space
        #: and shared between groups with one geometry.
        self._lookup = executor_lookup(
            len(self.executors), self.executors[0].spec.key_space.num_keys
        )

    def submit_event(
        self,
        batch: TupleBatch,
        src_node: int,
        sender: WindowedSender,
        ack: Event,
        callback: typing.Optional[typing.Callable],
    ) -> Event:
        """Deliver ``batch`` into the owning executor's input queue.

        Returns the one event to wait on, with ``callback`` (if any) as
        its waiter: the caller's processed ``ack`` armed as the put
        (local), or the remote send's delivery (see
        :meth:`WindowedSender.send_remote`).  Never ``None``: this group
        has no gate.
        """
        key = batch.key
        lookup = self._lookup  # indexed inline: a frame per batch
        index = lookup.table[key] if 0 <= key < lookup.num_keys else lookup[key]
        executor = self.executors[index]
        if executor.local_node == src_node:
            return executor.input_queue.arm_put(ack, batch, callback)
        return sender.send_remote(
            executor.local_node,
            executor.input_queue,
            batch,
            batch.count * batch.size_bytes,
            TransferPurpose.STREAM,
            callback,
        )


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
        """As :meth:`ElasticGroup.submit_event`, but ``None`` while the
        manager's gate is closed (see :func:`submit_when_open`)."""
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
        return sender.send_remote(
            executor.node_id,
            executor.input_queue,
            batch,
            batch.count * batch.size_bytes,
            TransferPurpose.STREAM,
            callback,
        )


def submit_when_open(
    group: typing.Any, batch: TupleBatch, src_node: int, sender: WindowedSender
) -> typing.Generator:
    """Submit ``batch`` to ``group``, first waiting out a closed gate.

    A generator (``yield from`` it, or run it as a process): the
    callback-compiled emitters use it only when ``submit_event`` reports
    the gate closed, so the wait costs a process frame per reopen, not
    per tuple.  Only an :class:`RCGroup` has a gate; an
    :class:`ElasticGroup` never reports one closed.
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
        if not remove_callback(waiting, callback):
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
        "src", "env", "schedule", "_batch", "_gi", "_due", "_wake", "_ack",
        "_pump_cb", "_next_group_cb",
    )

    def __init__(self, src: SourceInstance, schedule: typing.Iterator) -> None:
        self.src = src
        self.env = src.env
        self.schedule = schedule
        #: The batch being submitted, group ``_gi`` next.
        self._batch: typing.Optional[TupleBatch] = None
        self._gi = 0
        #: The batch the loop sleeps on until its emit time.
        self._due: typing.Optional[TupleBatch] = None
        self._wake = spare_event(src.env)
        self._ack = spare_event(src.env)
        self._pump_cb = self._pump
        self._next_group_cb = self._next_group
        self._pump()

    def _pump(self, _event: typing.Any = None) -> None:
        """Count the submitted batch, then emit every due batch of the
        schedule until one waits on a submit event or lies in the future.

        The callback of the wake event, which first emits the batch the
        loop slept on, and of the one submit of an untraced batch.  A
        trampoline, not recursion: a source with no downstream groups
        emits its whole backlog synchronously, which must not grow the
        stack per batch.
        """
        env = self.env
        src = self.src
        if self._batch is not None:
            src.emitted_tuples += self._batch.count
            self._batch = None
        batch = self._due
        self._due = None
        while True:
            if batch is None:
                try:
                    emit_time, batch = next(self.schedule)
                except StopIteration:
                    return  # schedule exhausted: the source simply stops
                now = env._now
                if emit_time > now:
                    self._due = batch
                    # The time stays ``now + (emit_time - now)``, which may
                    # round away from ``emit_time``: event order depends on it.
                    env.arm_at(now + (emit_time - now), self._wake, self._pump_cb)
                    return
            batch.admitted_at = env._now
            src._emitted_batches += 1
            groups = src._groups
            if src.trace_every and src._emitted_batches % src.trace_every == 0:
                batch.trace = {
                    "created": batch.created_at,
                    "admitted": batch.admitted_at,
                }
            elif len(groups) == 1:
                # The one submit of an untraced batch, inline and resuming
                # here: three frames per batch.
                self._batch = batch
                self._gi = 1
                group = groups[0]
                if group.submit_event(
                    batch, src.node_id, src.sender, self._ack, self._pump_cb
                ) is None:
                    self._wait_open(group, batch)
                return
            if not groups:
                src.emitted_tuples += batch.count
                batch = None
                continue
            self._batch = batch
            self._gi = 0
            self._next_group()
            return

    def _next_group(self, _event: typing.Any = None) -> None:
        """Submit to the next group, resuming on its event; after the
        last, pump the schedule."""
        src = self.src
        groups = src._groups
        gi = self._gi
        if gi >= len(groups):
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
            self._wait_open(group, batch)

    def _wait_open(self, group: typing.Any, batch: TupleBatch) -> None:
        """The gate is closed: a short-lived process waits it open."""
        src = self.src
        add_callback(self.env.process(
            submit_when_open(group, batch, src.node_id, src.sender)
        ), self._next_group_cb)


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
            add_callback(event, self._next_group_cb)
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
