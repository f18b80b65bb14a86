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
"""

from __future__ import annotations

import typing

from repro.cluster.network import NetworkFabric, TransferPurpose
from repro.executors.channels import WindowedSender
from repro.executors.config import ExecutorConfig
from repro.sim import Environment, Timeout
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
        self, batch: TupleBatch, src_node: int, sender: WindowedSender
    ) -> typing.Optional[typing.Any]:
        """Deliver ``batch`` into the owning executor's input queue.

        Returns the one event to wait on (the put, or the window grant of
        a remote send), or ``None`` when the gate is closed — see
        :func:`submit_when_open`.
        """
        gate = self.gate
        if gate is not None and gate.closed:
            return None
        router = self.router
        if router is not None:
            executor = router.route(batch.key)
        else:
            executor = self.executors[self._lookup[batch.key]]
        if self.in_flight is not None:
            self.in_flight.increment()
        if executor.local_node == src_node:
            return executor.input_queue.put(batch)
        return sender.send_event(
            executor.local_node,
            executor.input_queue,
            batch,
            batch.count * batch.size_bytes,
            TransferPurpose.STREAM,
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
        self, batch: TupleBatch, src_node: int, sender: WindowedSender
    ) -> typing.Optional[typing.Any]:
        """Same contract as :meth:`ElasticGroup.submit_event`."""
        manager = self.manager
        if manager.gate.closed:
            return None
        shard_id = manager.shard_lookup[batch.key]
        executor = manager._assignment[shard_id]
        manager.record_arrival(executor, batch)
        manager.in_flight.increment()
        if executor.node_id == src_node:
            return executor.input_queue.put(batch)
        return sender.send_event(
            executor.node_id,
            executor.input_queue,
            batch,
            batch.count * batch.size_bytes,
            TransferPurpose.STREAM,
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
        event = group.submit_event(batch, src_node, sender)
        if event is not None:
            yield event
            return
        yield group.gate.wait_open()


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
        "emitted_tuples", "trace_every", "_emitted_batches", "last_created",
    )

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        name: str,
        index: int,
        node_id: int,
        config: typing.Optional[ExecutorConfig] = None,
        trace_every: int = 0,
    ) -> None:
        config = config or ExecutorConfig()
        self.env = env
        self.name = f"{name}[{index}]"
        self.index = index
        self.node_id = node_id
        self.sender = WindowedSender(env, fabric, node_id, window=config.send_window)
        self._groups: typing.List[typing.Any] = []
        self.emitted_tuples = 0
        #: Attach a latency-breakdown trace to every Nth batch (0 = off).
        self.trace_every = trace_every
        self._emitted_batches = 0
        #: Ingest watermark: nominal creation time of the newest batch
        #: emitted.  ``env.now - last_created`` is this source's schedule
        #: lag under backpressure (gauged by telemetry).
        self.last_created = 0.0

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
    disappear.  ``src.sender``/``src.node_id`` are read per batch on
    purpose: ``relocate()`` swaps them when the hosting node crashes.
    """

    __slots__ = (
        "src", "env", "schedule", "_batch", "_gi", "_on_time_cb", "_on_sent_cb",
    )

    def __init__(self, src: SourceInstance, schedule: typing.Iterator) -> None:
        self.src = src
        self.env = src.env
        self.schedule = schedule
        self._batch: typing.Optional[TupleBatch] = None
        self._gi = 0
        self._on_time_cb = self._on_time
        self._on_sent_cb = self._on_sent
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
                timeout = Timeout(env, emit_time - now)
                timeout.callbacks.append(self._on_time_cb)
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
        src.last_created = batch.created_at
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

    def _next_group(self) -> None:
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
        event = group.submit_event(self._batch, src.node_id, src.sender)
        if event is None:
            event = self.env.process(  # repro: allow[SIM001]: gate-closed slow path — one process frame per reopen wait, not per tuple
                submit_when_open(group, self._batch, src.node_id, src.sender)
            )
        event.callbacks.append(self._on_sent_cb)

    def _on_sent(self, _event: typing.Any) -> None:
        self._next_group()
