"""The elastic executor (paper §3).

A lightweight, self-contained distributed subsystem owning one fixed key
subspace.  It runs a main process on its *local node* hosting the receiver
and emitter daemons and the routing table; for every allocated CPU core a
task is created — on the local node or inside a remote process on another
node.  Shards (hash mini-partitions of the key subspace) are dynamically
balanced across tasks with the FFD heuristic, using the labeling-tuple
protocol to reassign shards consistently and intra-process state sharing
to make same-node reassignments free.
"""

from __future__ import annotations

import typing

from repro.cluster.network import TransferPurpose
from repro.cluster.node import Cluster
from repro.executors.balancer import ShardBalancer
from repro.executors.channels import WindowedSender, _Delivery
from repro.executors.config import ExecutorConfig
from repro.executors.routing import RoutingTable
from repro.executors.stats import ExecutorMetrics, ReassignmentRecord, ReassignmentStats
from repro.executors.task import STOP, StopSignal, Task
from repro.logic.base import OperatorLogic, StateAccess
from repro.protocol import REHOME, SHARD_REASSIGN
from repro.sanitize import ShardSanitizer
from repro.sim import Environment, Event, Resource, Store
from repro.sim.events import PENDING
from repro.state import MigrationClock, ProcessStateStore, ShardState, migrate_shard
from repro.topology.batch import LabelTuple, TupleBatch
from repro.topology.keys import shard_lookup
from repro.topology.operator import OperatorSpec


class _ReceiverLoop:
    """Callback-compiled receiver daemon (replaces the generator loop).

    Functionally identical to the retired ``_receiver_loop`` generator —
    get a batch, route it (buffer / local task queue / windowed remote
    send), repeat — but hand-compiled to callbacks on a slotted object.
    The event footprint per batch is exactly the generator's (the get,
    then the put or the window grant), so simulation ordering is
    unchanged; what disappears is the Process frame, the generator
    resume and the StopIteration machinery on every hop.

    Plumbing handles are bound once at construction, mirroring the
    generator's locals: crash recovery replaces the executor's plumbing
    and then builds a *fresh* loop, so the bindings can never go stale.
    """

    __slots__ = (
        "env", "input_queue", "lookup", "entries", "on_arrival",
        "local_node", "sender", "window_request", "transfer", "san",
        "_waiting", "_batch", "_task", "_dead",
        "_on_batch_cb", "_on_put_cb", "_on_window_cb",
    )

    def __init__(self, executor: "ElasticExecutor") -> None:
        self.env = executor.env
        self.input_queue = executor.input_queue
        self.lookup = executor._shard_lookup
        self.entries = executor.routing._entries
        self.on_arrival = executor.metrics.on_arrival
        self.local_node = executor.local_node
        sender = executor._receiver_sender
        self.sender = sender
        self.window_request = sender._window.request
        self.transfer = sender.fabric.transfer
        self.san = executor._san
        self._waiting: typing.Optional[Event] = None
        self._batch: typing.Optional[TupleBatch] = None
        self._task: typing.Optional[Task] = None
        self._dead = False
        self._on_batch_cb = self._on_batch
        self._on_put_cb = self._on_put
        self._on_window_cb = self._on_window
        self._pump()

    def _pump(self) -> None:
        event = self.input_queue.get()
        self._waiting = event
        event.callbacks.append(self._on_batch_cb)

    def _on_batch(self, event: Event) -> None:
        if self._dead:
            return
        self._waiting = None
        batch = event._value
        env = self.env
        if batch.trace is not None:
            batch.trace["received"] = env._now
        count = batch.count
        self.on_arrival(env._now, count, count * batch.size_bytes)
        shard_id = self.lookup[batch.key]
        entry = self.entries[shard_id]
        if self.san is not None:
            self.san.on_route(batch, shard_id)
        if entry.paused:
            entry.buffer.append(batch)
            self._pump()
            return
        task = entry.task
        if task.node_id == self.local_node:
            put = task.queue.put(batch)
            self._waiting = put
            put.callbacks.append(self._on_put_cb)
            return
        self._batch = batch
        self._task = task
        request = self.window_request()
        self._waiting = request
        request.callbacks.append(self._on_window_cb)

    def _on_put(self, _event: Event) -> None:
        if self._dead:
            return
        self._waiting = None
        self._pump()

    def _on_window(self, _event: Event) -> None:
        if self._dead:
            return
        self._waiting = None
        batch = self._batch
        task = self._task
        self._batch = None
        self._task = None
        hop = self.transfer(
            self.local_node, task.node_id,
            batch.count * batch.size_bytes, TransferPurpose.REMOTE_TASK,
        )
        _Delivery(self.sender, hop, task.queue, batch)
        self._pump()

    def kill(self) -> typing.Optional[Event]:
        """Stop the loop (crash semantics); returns the awaited event.

        Same contract as ``Process.kill``: the loop's callback is removed
        from whatever it was blocked on so the caller can cancel the
        store bookkeeping tied to it.
        """
        self._dead = True
        waiting = self._waiting
        self._waiting = None
        if waiting is not None and waiting.callbacks is not None:
            for callback in (self._on_batch_cb, self._on_put_cb, self._on_window_cb):
                try:
                    waiting.callbacks.remove(callback)
                    break
                except ValueError:
                    pass
        return waiting


class _EmitterLoop:
    """Callback-compiled emitter daemon (replaces the generator loop).

    Pulls finished batches off the emitter queue and submits them to
    every downstream group via the one-event ``submit_event`` fast path;
    a closed repartition gate (rare — hybrid controller only) falls back
    to the group's generator form in a short-lived process that can wait
    the gate open.  Kill contract matches ``Process.kill``.
    """

    __slots__ = (
        "env", "ex", "queue", "local_node", "sender",
        "_waiting", "_batch", "_gi", "_dead", "_on_batch_cb", "_on_sent_cb",
    )

    def __init__(self, executor: "ElasticExecutor") -> None:
        self.env = executor.env
        # ``_downstream_groups`` is read per batch through the executor:
        # start() runs before connect() wires the topology, which swaps
        # the list object.
        self.ex = executor
        self.queue = executor._emitter_queue
        self.local_node = executor.local_node
        self.sender = executor._emitter_sender
        self._waiting: typing.Optional[Event] = None
        self._batch: typing.Optional[TupleBatch] = None
        self._gi = 0
        self._dead = False
        self._on_batch_cb = self._on_batch
        self._on_sent_cb = self._on_sent
        self._pump()

    def _pump(self) -> None:
        event = self.queue.get()
        self._waiting = event
        event.callbacks.append(self._on_batch_cb)

    def _on_batch(self, event: Event) -> None:
        if self._dead:
            return
        self._waiting = None
        self._batch = event._value
        self._gi = 0
        self._next_group()

    def _next_group(self) -> None:
        groups = self.ex._downstream_groups
        gi = self._gi
        if gi >= len(groups):
            self._batch = None
            self._pump()
            return
        self._gi = gi + 1
        group = groups[gi]
        event = group.submit_event(self._batch, self.local_node, self.sender)
        if event is None:
            # Gate closed: the generator form can wait it open.
            event = self.env.process(  # repro: allow[SIM001]: gate-closed slow path — one process frame per reopen wait, not per tuple
                group.submit(self._batch, self.local_node, self.sender)
            )
        self._waiting = event
        event.callbacks.append(self._on_sent_cb)

    def _on_sent(self, _event: Event) -> None:
        if self._dead:
            return
        self._waiting = None
        self._next_group()

    def kill(self) -> typing.Optional[Event]:
        """Stop the loop (crash semantics); returns the awaited event."""
        self._dead = True
        waiting = self._waiting
        self._waiting = None
        if waiting is not None and waiting.callbacks is not None:
            for callback in (self._on_batch_cb, self._on_sent_cb):
                try:
                    waiting.callbacks.remove(callback)
                    break
                except ValueError:
                    pass
        return waiting


class _TaskPipeline(Event):
    """Callback-compiled task loop + batch execution (one per task).

    Replaces two generators per task — ``Task._run`` and the executor's
    ``process_batch`` — with a single slotted FSM driven entirely by
    event callbacks: get an item, burn the CPU cost (a bare wake event on
    the timer heap), apply state + logic, then hand emissions to the
    emitter queue.  The per-batch event footprint (get, wake, emission
    puts) is identical to the generator pair, so simulation ordering is
    unchanged; the ~3 generator resumes per batch disappear.

    The pipeline *is* the task's completion event (like ``Process``): it
    succeeds when a :class:`StopSignal` is consumed, so ``remove_core``'s
    ``yield victim.process`` and the hybrid controller's drain waits work
    unmodified.  Executors with an external state store keep the
    generator path (the state access itself yields network events).
    """

    __slots__ = (
        "task", "ex", "queue",
        "_waiting", "_item", "_cost", "_started", "_emissions", "_ei", "_dead",
        "_on_item_cb", "_on_wake_cb", "_on_eput_cb",
    )

    def __init__(self, executor: "ElasticExecutor", task: "Task") -> None:
        Event.__init__(self, executor.env)
        self.task = task
        self.ex = executor
        self.queue = task.queue
        self._waiting: typing.Optional[Event] = None
        self._item: typing.Optional[TupleBatch] = None
        self._cost = 0.0
        self._started = 0.0
        self._emissions: typing.Sequence[typing.Any] = ()
        self._ei = 0
        self._dead = False
        self._on_item_cb = self._on_item
        self._on_wake_cb = self._on_wake
        self._on_eput_cb = self._on_emit_put
        self._pump()

    def _pump(self) -> None:
        event = self.queue.get()
        self._waiting = event
        event.callbacks.append(self._on_item_cb)

    def _on_item(self, event: Event) -> None:
        if self._dead:
            return
        self._waiting = None
        item = event._value
        task = self.task
        cls = item.__class__
        if cls is not TupleBatch:
            # Control items are rare; exact class checks keep the common
            # batch path to a single pointer comparison.
            if cls is StopSignal:
                task.stopped = True
                self.succeed(None)
                return
            if cls is LabelTuple:
                # FIFO guarantees every tuple routed to this task before
                # the label has been processed — signal the drain.
                item.event.succeed()
                self._pump()
                return
        ex = self.ex
        env = ex.env
        self._started = env._now
        task.current_item = item
        if item.trace is not None:
            item.trace["task_start"] = env._now
        logic = ex.logic
        cost = logic.cpu_seconds(item) if logic is not None else 0.0
        # Wall time on this core; slow nodes (stragglers) and injected
        # stalls take longer, and everything downstream — shard loads, µ,
        # the scheduler — sees the measured reality, not the nominal
        # cost.  cluster.speed is read per batch on purpose: straggler
        # injection changes it mid-run.
        cost = cost / (ex.cluster.speed(task.node_id) * ex.stall_factor)
        self._item = item
        self._cost = cost
        if cost > 0:
            # Inlined timeout (one per processed batch): a bare triggered
            # event pushed at now + cost, skipping the Timeout frames.
            wake = Event.__new__(Event)
            wake.env = env
            wake.callbacks = [self._on_wake_cb]
            wake._ok = True
            wake._value = None
            env.push_at(env._now + cost, wake)
            self._waiting = wake
            return
        self._execute()

    def _on_wake(self, _event: Event) -> None:
        if self._dead:
            return
        self._waiting = None
        self._execute()

    def _execute(self) -> None:
        ex = self.ex
        env = ex.env
        task = self.task
        batch = self._item
        cost = self._cost
        shard_id = ex._shard_lookup[batch.key]
        ex._shard_cost_accum[shard_id] += cost
        if ex._san is not None:
            ex._san.on_access(shard_id, task.task_id, batch)
        emissions: typing.Sequence[typing.Any] = ()
        logic = ex.logic
        if logic is not None:
            shard = ex.stores[task.node_id].get(shard_id)
            emissions = logic.process(batch, StateAccess(shard))
        now = env._now
        metrics = ex.metrics
        metrics.on_processed(now, batch.count, cost)
        reference = batch.admitted_at
        if reference is None:
            reference = batch.created_at
        waited = now - reference
        metrics.queue_latency.record(waited if waited > 0.0 else 0.0)
        if ex.operator_in_flight is not None:
            ex.operator_in_flight.decrement()
        if batch.trace is not None:
            batch.trace["done"] = now
        # Commit point: state applied and accounted.  A crash from here
        # on must not count the batch as lost (and must not re-apply it).
        task.current_item = None
        if ex.is_sink:
            probe = ex.latency_probe
            if probe is not None:
                probe.record(shard_id, now - batch.created_at, batch.count, now)
            if ex._sink_recorder is not None:
                ex._sink_recorder(batch, now)
            self._finish()
            return
        if emissions:
            if not isinstance(emissions, (list, tuple)):
                emissions = tuple(emissions)
            self._emissions = emissions
            self._ei = 0
            self._next_emission()
            return
        self._finish()

    def _next_emission(self) -> None:
        ex = self.ex
        task = self.task
        batch = self._item
        emissions = self._emissions
        ei = self._ei
        if ei >= len(emissions):
            self._emissions = ()
            self._finish()
            return
        self._ei = ei + 1
        emission = emissions[ei]
        out = TupleBatch(
            key=emission.key,
            count=emission.count,
            cpu_cost=0.0,
            size_bytes=emission.size_bytes,
            created_at=batch.created_at,
            payload=emission.payload,
            admitted_at=batch.admitted_at,
            trace=batch.trace,
        )
        ex.metrics.on_emit(ex.env._now, out.total_bytes)
        if task.node_id == ex.local_node:
            event = ex._emitter_queue.put(out)
        else:
            sender = ex._remote_senders[task.node_id]
            event = sender.send_event(
                ex.local_node, ex._emitter_queue, out,
                out.total_bytes, TransferPurpose.REMOTE_TASK,
            )
        self._waiting = event
        event.callbacks.append(self._on_eput_cb)

    def _on_emit_put(self, _event: Event) -> None:
        if self._dead:
            return
        self._waiting = None
        self._next_emission()

    def _finish(self) -> None:
        task = self.task
        task.busy_seconds += self.ex.env._now - self._started
        self._item = None
        self._pump()

    def kill(self) -> typing.Optional[Event]:
        """Terminate abruptly (crash semantics); same contract as
        ``Process.kill``: succeeds the completion event so waiters are
        not stranded and returns the event the pipeline was blocked on
        so the caller can cancel store bookkeeping tied to it."""
        if self._value is not PENDING:
            return None
        self._dead = True
        waiting = self._waiting
        self._waiting = None
        if waiting is not None and waiting.callbacks is not None:
            for callback in (self._on_item_cb, self._on_wake_cb, self._on_eput_cb):
                try:
                    waiting.callbacks.remove(callback)
                    break
                except ValueError:
                    pass
        self.succeed(None)
        return waiting


class ElasticExecutor:
    """One elastic executor of an operator."""

    __slots__ = (
        "env", "cluster", "spec", "index", "name", "local_node", "logic",
        "config", "reassignment_stats", "migration_clock", "num_shards",
        "_shard_lookup", "external_state", "input_queue", "_emitter_queue",
        "routing", "metrics", "tasks", "_next_task_id", "stores",
        "_receiver_sender", "_emitter_sender", "_remote_senders", "_control",
        "_balancer", "_shard_cost_accum", "_shard_load", "_downstream_groups",
        "_sink_recorder", "_started", "_enable_balancer", "_daemons", "alive",
        "stall_factor", "operator_in_flight", "_san", "latency_probe",
    )

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        spec: OperatorSpec,
        index: int,
        local_node: int,
        logic: typing.Optional[OperatorLogic] = None,
        config: typing.Optional[ExecutorConfig] = None,
        reassignment_stats: typing.Optional[ReassignmentStats] = None,
        migration_clock: typing.Optional[MigrationClock] = None,
        external_state: typing.Optional[typing.Any] = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.spec = spec
        self.index = index
        self.name = f"{spec.name}[{index}]"
        self.local_node = local_node
        self.logic = logic if logic is not None else spec.logic
        self.config = config or ExecutorConfig()
        self.reassignment_stats = reassignment_stats or ReassignmentStats()
        self.migration_clock = migration_clock or MigrationClock()
        self.num_shards = spec.shards_per_executor
        #: Tier-2 routing (key -> shard).  The hash is static; with a
        #: declared dense key space the table is precomputed and shared
        #: across the operator's executors instead of memoized per key.
        self._shard_lookup = shard_lookup(
            self.num_shards, spec.key_space.num_keys
        )

        #: Optional :class:`repro.state.external.ExternalStateService` —
        #: when set, shard state lives in the external store (every batch
        #: pays an access round trip; reassignment migrates nothing).
        self.external_state = external_state
        self.input_queue = Store(env, capacity=self.config.input_queue_capacity)
        self._emitter_queue = Store(env, capacity=self.config.emitter_queue_capacity)
        self.routing = RoutingTable(self.num_shards)
        self.metrics = ExecutorMetrics()
        self.tasks: typing.Dict[int, Task] = {}
        self._next_task_id = 0
        #: One state store per process: local node plus each remote node.
        self.stores: typing.Dict[int, ProcessStateStore] = {
            local_node: ProcessStateStore(self.name, local_node)
        }
        for shard_id in range(self.num_shards):
            shard = ShardState(
                shard_id,
                nominal_bytes=spec.shard_state_bytes,
                hot_entries=spec.hot_state_entries,
            )
            if self.external_state is not None:
                self.external_state.register_shard(self.name, shard)
            else:
                self.stores[local_node].add(shard)
        #: Senders: the main process's (receiver + emitter share the node's
        #: connections but have independent windows) and one per remote node.
        self._receiver_sender = WindowedSender(
            env, cluster.network, local_node, window=self.config.send_window
        )
        self._emitter_sender = WindowedSender(
            env, cluster.network, local_node, window=self.config.send_window
        )
        self._remote_senders: typing.Dict[int, WindowedSender] = {}
        #: Serializes membership changes and balancing rounds.
        self._control = Resource(env)
        self._balancer = ShardBalancer(theta=self.config.theta)
        self._shard_cost_accum = [0.0] * self.num_shards
        self._shard_load = [0.0] * self.num_shards
        self._downstream_groups: typing.List[typing.Any] = []
        self._sink_recorder: typing.Optional[typing.Callable] = None
        self._started = False
        self._enable_balancer = True
        self._daemons: typing.List[typing.Any] = []
        #: False between a fatal crash and the completed restart; the
        #: scheduler ignores dead executors.
        self.alive = True
        #: Gray-failure hook: relative processing speed (0.25 = 4x slower).
        self.stall_factor = 1.0
        #: Set by the hybrid controller: operator-level in-flight counter
        #: decremented as this executor completes batches.
        self.operator_in_flight: typing.Optional[typing.Any] = None
        #: Shard-ownership race detector; None unless REPRO_SANITIZE is set
        #: (every hook site below is a single ``is not None`` test).
        self._san = ShardSanitizer.from_env(self.name, self.num_shards, env)
        #: Per-shard end-to-end latency sketches; None unless telemetry is
        #: enabled (the sink path pays a single ``is not None`` test).
        self.latency_probe: typing.Optional[typing.Any] = None

    # -- wiring -----------------------------------------------------------

    def connect(
        self,
        downstream_groups: typing.Sequence[typing.Any],
        sink_recorder: typing.Optional[typing.Callable] = None,
    ) -> None:
        """Attach downstream delivery targets (or a sink recorder)."""
        self._downstream_groups = list(downstream_groups)
        self._sink_recorder = sink_recorder

    @property
    def is_sink(self) -> bool:
        return not self._downstream_groups

    @property
    def node_id(self) -> int:
        """The main process's node (upstream-synchronization address)."""
        return self.local_node

    @property
    def num_cores(self) -> int:
        return len(self.tasks)

    def cores_by_node(self) -> typing.Dict[int, int]:
        """node -> task count (the executor's column x_j of the matrix X)."""
        counts: typing.Dict[int, int] = {}
        for task in self.tasks.values():
            counts[task.node_id] = counts.get(task.node_id, 0) + 1
        return counts

    def state_bytes(self) -> int:
        """Aggregate state size s_j (zero with an external store —
        nothing migrates on core reassignment)."""
        if self.external_state is not None:
            return 0
        return sum(store.total_bytes() for store in self.stores.values())

    def is_congested(self) -> bool:
        """True when backpressure is throttling admission.

        A congested executor's measured arrival rate understates demand
        (arrivals are capped by its own capacity), so the scheduler treats
        congestion as a signal to provision beyond the measured λ.
        """
        return (
            self.input_queue.pending_puts > 0
            or len(self.input_queue) >= self.config.input_queue_capacity
        )

    def start(self, initial_cores: int = 1) -> None:
        """Create the first task(s) on the local node and spawn daemons."""
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        if initial_cores < 1:
            raise ValueError("an executor needs at least one core")
        self._started = True
        for _ in range(initial_cores):
            self._create_task(self.local_node)
        # Initial placement: shards spread round-robin over initial tasks.
        tasks = list(self.tasks.values())
        san = self._san
        for shard_id in range(self.num_shards):
            task = tasks[shard_id % len(tasks)]
            self.routing.assign(shard_id, task)
            if san is not None:
                san.on_assign(shard_id, task.task_id)
        self._daemons = [_ReceiverLoop(self), _EmitterLoop(self)]
        if self._enable_balancer:
            self._daemons.append(self.env.process(self._balance_loop()))

    # -- data plane -------------------------------------------------------

    def make_pipeline(self, task: Task) -> typing.Optional["_TaskPipeline"]:
        """Build the compiled task pipeline, or ``None`` for the generator.

        External state stores keep the generator path: the state access
        itself yields network events, which the compiled pipeline does
        not model.
        """
        if self.external_state is not None:
            return None
        return _TaskPipeline(self, task)

    def _forward(
        self, item: typing.Any, task: Task, nbytes: typing.Optional[float] = None
    ) -> typing.Generator:
        """Route an item to a task, over the network for remote tasks."""
        if task.node_id == self.local_node:
            yield task.queue.put(item)
            return
        if nbytes is None:
            nbytes = item.total_bytes if isinstance(item, TupleBatch) else self.config.control_bytes
        yield from self._receiver_sender.send(
            task.node_id, task.queue, item, nbytes, TransferPurpose.REMOTE_TASK
        )

    def process_batch(self, task: Task, batch: TupleBatch) -> typing.Generator:
        """Execute one batch on ``task``'s core (called from Task loop)."""
        env = self.env
        logic = self.logic
        if batch.trace is not None:
            batch.trace["task_start"] = env._now
        cost = logic.cpu_seconds(batch) if logic is not None else 0.0
        # Wall time on this core; slow nodes (stragglers) and injected
        # stalls take longer, and everything downstream — shard loads, µ,
        # the scheduler — sees the measured reality, not the nominal cost.
        # cluster.speed is read per batch on purpose: straggler injection
        # changes it mid-run.
        cost = cost / (self.cluster.speed(task.node_id) * self.stall_factor)
        if cost > 0:
            # Inlined timeout (one per processed batch): a bare triggered
            # event pushed at now + cost, skipping the Timeout frames.
            wake = Event.__new__(Event)
            wake.env = env
            wake.callbacks = []
            wake._ok = True
            wake._value = None
            env.push_at(env._now + cost, wake)
            yield wake
        shard_id = self._shard_lookup[batch.key]
        self._shard_cost_accum[shard_id] += cost
        if self._san is not None:
            self._san.on_access(shard_id, task.task_id, batch)
        emissions = ()
        if logic is not None:
            if self.external_state is not None:
                shard = yield from self.external_state.access(
                    self.name, shard_id, task.node_id
                )
            else:
                shard = self.stores[task.node_id].get(shard_id)
            emissions = logic.process(batch, StateAccess(shard))
        now = env._now
        metrics = self.metrics
        metrics.on_processed(now, batch.count, cost)
        reference = batch.admitted_at
        if reference is None:
            reference = batch.created_at
        waited = now - reference
        metrics.queue_latency.record(waited if waited > 0.0 else 0.0)
        if self.operator_in_flight is not None:
            self.operator_in_flight.decrement()
        if batch.trace is not None:
            batch.trace["done"] = now
        # Commit point: state applied and accounted.  A crash from here on
        # must not count the batch as lost (and must not re-apply it).
        task.current_item = None
        if self.is_sink:
            probe = self.latency_probe
            if probe is not None:
                probe.record(shard_id, now - batch.created_at, batch.count, now)
            if self._sink_recorder is not None:
                self._sink_recorder(batch, now)
            return
        for emission in emissions:
            out = TupleBatch(
                key=emission.key,
                count=emission.count,
                cpu_cost=0.0,
                size_bytes=emission.size_bytes,
                created_at=batch.created_at,
                payload=emission.payload,
                admitted_at=batch.admitted_at,
                trace=batch.trace,
            )
            self.metrics.on_emit(now, out.total_bytes)
            if task.node_id == self.local_node:
                yield self._emitter_queue.put(out)
            else:
                sender = self._remote_senders[task.node_id]
                yield from sender.send(
                    self.local_node,
                    self._emitter_queue,
                    out,
                    out.total_bytes,
                    TransferPurpose.REMOTE_TASK,
                )

    # -- elasticity: core membership --------------------------------------

    def _create_task(self, node_id: int) -> Task:
        task = Task(
            self.env,
            self._next_task_id,
            node_id,
            owner=self,
            queue_capacity=self.config.task_queue_capacity,
        )
        self._next_task_id += 1
        self.tasks[task.task_id] = task
        self.routing.register_task(task)
        return task

    def add_core(self, node_id: int) -> typing.Generator:
        """Grow by one task on ``node_id`` and rebalance shards onto it.

        Simulation process body.  Core accounting is the scheduler's job.
        """
        yield self._control.request()
        try:
            if not self.cluster.node(node_id).alive:
                return  # the node crashed after this growth was planned
            if node_id != self.local_node and node_id not in self.stores:
                self.stores[node_id] = ProcessStateStore(self.name, node_id)
                self._remote_senders[node_id] = WindowedSender(
                    self.env, self.cluster.network, node_id,
                    window=self.config.send_window,
                )
                if self.config.remote_process_spawn_seconds > 0:
                    yield self.env.timeout(self.config.remote_process_spawn_seconds)
                if not self.cluster.node(node_id).alive:
                    self.stores.pop(node_id, None)
                    self._remote_senders.pop(node_id, None)
                    return  # crashed while the remote process was spawning
            self._create_task(node_id)
            self.env.telemetry.emit(
                "core_added", source=self.name, node=node_id,
                cores=len(self.tasks),
            )
            yield from self._rebalance_locked()
        finally:
            self._control.release()

    def remove_core(self, node_id: int) -> typing.Generator:
        """Shrink by one task on ``node_id``, evacuating its shards first."""
        yield self._control.request()
        try:
            candidates = [t for t in self.tasks.values() if t.node_id == node_id]
            if not candidates:
                raise ValueError(f"{self.name} has no task on node {node_id}")
            if len(self.tasks) == 1:
                raise ValueError(f"{self.name} cannot drop its last core")
            victim = min(candidates, key=lambda t: self._task_load(t))
            survivors = [t for t in self.tasks.values() if t is not victim]
            shard_loads = {i: self._shard_load[i] for i in range(self.num_shards)}
            placement = self._balancer.spread_plan(
                shard_loads,
                self.routing.shards_of(victim),
                survivors,
                initial_loads={t: self._task_load(t) for t in survivors},
            )
            for shard_id, dst_task in sorted(placement.items()):
                yield from self._reassign(shard_id, dst_task)
            yield from self._forward(STOP, victim)
            yield victim.process
            if victim.task_id not in self.tasks:
                # A crash destroyed the victim while its queue drained;
                # _kill_task already deregistered it and recovery owns
                # the orphaned shards.
                return
            del self.tasks[victim.task_id]
            self.routing.unregister_task(victim)
            self.env.telemetry.emit(
                "core_removed", source=self.name, node=node_id,
                cores=len(self.tasks),
            )
        finally:
            self._control.release()

    # -- elasticity: intra-executor load balancing ------------------------

    def _task_load(self, task: Task) -> float:
        return sum(self._shard_load[s] for s in self.routing.shards_of(task))

    def _snapshot_loads(self) -> typing.Dict[int, float]:
        """Blend the accumulated per-shard cost into smoothed loads."""
        alpha = self.config.load_smoothing
        interval = max(self.config.balance_interval, 1e-9)
        for shard_id in range(self.num_shards):
            observed = self._shard_cost_accum[shard_id] / interval
            self._shard_load[shard_id] = (
                alpha * observed + (1 - alpha) * self._shard_load[shard_id]
            )
            self._shard_cost_accum[shard_id] = 0.0
        return {i: self._shard_load[i] for i in range(self.num_shards)}

    def imbalance(self) -> float:
        """Current δ across tasks."""
        loads = {task: self._task_load(task) for task in self.tasks.values()}
        return ShardBalancer.imbalance(loads)

    def _balance_loop(self) -> typing.Generator:
        while True:
            yield self.env.timeout(self.config.balance_interval)
            yield self._control.request()
            try:
                self._snapshot_loads()
                trigger = self.config.theta * self.config.balance_trigger_margin
                delta = self.imbalance()
                if delta > trigger:
                    self.env.telemetry.emit(
                        "rebalance_triggered", source=self.name,
                        imbalance=delta, trigger=trigger,
                    )
                    yield from self._rebalance_locked()
            finally:
                self._control.release()

    def rebalance_now(self) -> typing.Generator:
        """One immediate balancing round (simulation process body).

        The proactive scheduler's forecast-triggered path: spread this
        executor's shards over its cores *now* instead of waiting for
        the periodic balance loop to observe the imbalance.  Plans on
        the last snapshotted shard loads — taking a fresh snapshot
        mid-interval would divide a partial accumulation window by the
        full interval and under-estimate every load.
        """
        yield self._control.request()
        try:
            if self.alive:
                yield from self._rebalance_locked()
        finally:
            self._control.release()

    def _rebalance_locked(self) -> typing.Generator:
        """Plan and execute shard moves.  Caller must hold the control lock."""
        bus = self.env.telemetry
        span = bus.begin_span("rebalance", source=self.name)
        try:
            shard_loads = {i: self._shard_load[i] for i in range(self.num_shards)}
            if sum(shard_loads.values()) <= 0:
                # No load statistics yet (fresh start / new tasks before any
                # traffic): spread by shard count so every core has work the
                # moment tuples arrive.
                yield from self._spread_by_count()
                span.finish(status="ok", mode="spread_by_count")
                return
            # Plan over live tasks only: a crash overlapping remove_core can
            # leave a shard pointing at a task that is already gone.  Like
            # _reassign's ``src_task is None`` case, recovery owns it.
            assignment = {
                shard_id: task
                for shard_id, task in self.routing.assignment().items()
                if task.task_id in self.tasks
            }
            moves = self._balancer.plan(
                shard_loads, assignment, list(self.tasks.values())
            )
            for move in moves:
                yield from self._reassign(move.shard_id, move.dst)
            span.finish(status="ok", moves=len(moves))
        finally:
            span.finish(status="aborted")

    def _spread_by_count(self) -> typing.Generator:
        tasks = list(self.tasks.values())
        quota = -(-self.num_shards // len(tasks))  # ceil division
        deficits = [
            task for task in tasks
            if len(self.routing.shards_of(task)) < quota
        ]
        for task in tasks:
            surplus = sorted(self.routing.shards_of(task))[quota:]
            for shard_id in surplus:
                while deficits and len(
                    self.routing.shards_of(deficits[0])
                ) >= quota:
                    deficits.pop(0)
                if not deficits:
                    return
                yield from self._reassign(shard_id, deficits[0])

    # -- consistent shard reassignment (paper §3.3) ------------------------

    def _reassign(self, shard_id: int, dst_task: Task) -> typing.Generator:
        entry = self.routing.entry(shard_id)
        src_task = entry.task
        if src_task is dst_task:
            return
        if src_task is None:
            # The shard was orphaned by a crash; recovery owns it (state
            # may need rebuilding first), so balancing leaves it alone.
            return
        bus = self.env.telemetry
        san = self._san
        span = bus.begin_span("reassign", source=self.name, shard=shard_id)
        proto = SHARD_REASSIGN.tracker()
        try:
            started = self.env.now
            if self.config.reassignment_overhead > 0:
                yield self.env.timeout(self.config.reassignment_overhead)
            # 1. Pause routing for the shard; new arrivals buffer in the entry.
            entry.paused = True
            span.mark("pause")
            proto.advance("pause")
            if san is not None:
                san.on_pause(shard_id, src_task.task_id)
            # 2. Drain: a labeling tuple chases all pending tuples of the shard.
            label_event = self.env.event()
            yield from self._forward(LabelTuple(shard_id, label_event), src_task)
            yield label_event
            sync_done = self.env.now
            span.mark("drain")
            proto.advance("drain")
            # Re-validate after the drain: a crash may have intervened (dead
            # queues succeed their labels via the dead-letter reaper).
            if entry.task is not src_task:
                # Crash recovery orphaned or already re-homed the shard —
                # abandon this move, recovery owns it now.
                return
            if dst_task.stopped or dst_task.task_id not in self.tasks:
                live = [t for t in self.tasks.values() if not t.stopped]
                if not live:
                    # Every core died mid-move; leave the shard paused for the
                    # fault coordinator to re-home or rebuild.
                    return
                dst_task = min(live, key=lambda t: (self._task_load(t), t.task_id))
                if dst_task is src_task:
                    if san is not None:
                        san.on_resume(shard_id)
                    while entry.buffer:
                        yield from self._forward(entry.buffer.popleft(), src_task)
                    entry.paused = False
                    return
            # 3. Migrate state only across processes (intra-process sharing).
            # With an external state store nothing ever moves — that design's
            # whole appeal (its cost lives in every state access instead).
            migrated_bytes = 0
            inter_node = src_task.node_id != dst_task.node_id
            if self.external_state is not None:
                pass
            elif inter_node:
                src_store = self.stores[src_task.node_id]
                dst_store = self.stores[dst_task.node_id]
                migrated_bytes = src_store.get(shard_id).nominal_bytes
                yield from migrate_shard(
                    self.env, self.cluster.network, src_store, dst_store,
                    shard_id, self.migration_clock,
                )
            elif self.config.disable_state_sharing:
                # Ablation: without intra-process state sharing, a same-node
                # move still serializes + copies the shard state.
                state_bytes = self.stores[src_task.node_id].get(shard_id).nominal_bytes
                migrated_bytes = state_bytes
                copy_delay = 2 * self.migration_clock.serialization_delay(state_bytes)
                if copy_delay > 0:
                    yield self.env.timeout(copy_delay)
            migration_done = self.env.now
            span.mark("migration")
            proto.advance("migration")
            # 4. Update the routing table, flush buffered tuples, resume.
            self.routing.assign(shard_id, dst_task)
            if san is not None:
                san.on_assign(shard_id, dst_task.task_id)
            while entry.buffer:
                item = entry.buffer.popleft()
                yield from self._forward(item, dst_task)
            entry.paused = False
            span.mark("routing_update")
            proto.advance("routing_update")
            self.reassignment_stats.record(
                ReassignmentRecord(
                    time=started,
                    shard_id=shard_id,
                    inter_node=inter_node,
                    sync_seconds=sync_done - started,
                    migration_seconds=migration_done - sync_done,
                    migrated_bytes=migrated_bytes,
                )
            )
            span.finish(status="ok", inter_node=inter_node,
                        migrated_bytes=migrated_bytes)
            bus.emit(
                "reassignment", source=self.name, shard=shard_id,
                inter_node=inter_node, sync_seconds=sync_done - started,
                migration_seconds=migration_done - sync_done,
                migrated_bytes=migrated_bytes, started=started,
            )
            proto.advance("done")
        finally:
            # Early returns and crash kills land here with the span still
            # open: close it as aborted so exported logs stay well-formed.
            span.finish(status="aborted")
            proto.close("aborted")

    # -- fault recovery (fail-stop crashes, see repro.faults) --------------

    def _kill_task(self, task: Task, reaper: typing.Any) -> typing.List[int]:
        """Destroy one task abruptly; dead-letter everything it held.

        Returns the task's orphaned shard ids.  Lock-free on purpose: the
        hardware is gone *now*, and an in-flight reassignment may be
        blocked on a label sitting in this very queue — the reaper
        releases it.
        """
        san = self._san
        for item in task.kill():
            reaper.account(item)
            if san is not None:
                san.forget(item)
        orphans = self.routing.orphan_task(task)
        if san is not None:
            for shard_id in orphans:
                san.on_orphan(shard_id)
        self.tasks.pop(task.task_id, None)
        reaper.watch(task.queue)  # late network deliveries die with the core
        return orphans

    def crash_tasks(
        self, victims: typing.Sequence[Task], reaper: typing.Any
    ) -> typing.List[int]:
        """Fail-stop a subset of tasks (their cores died).

        Queued and in-flight work is dead-lettered with exact counters;
        the victims' shards pause, buffering new arrivals until
        :meth:`rehome_orphans` runs after the detection delay.
        """
        orphans: typing.List[int] = []
        for task in sorted(victims, key=lambda t: t.task_id):
            orphans.extend(self._kill_task(task, reaper))
        return sorted(orphans)

    def crash_main(self, reaper: typing.Any) -> None:
        """The executor's main process dies (its node crashed).

        Everything goes: daemons, all tasks, queues, pause buffers.  The
        executor stays registered with the system but ``alive=False``
        until :meth:`restart_on_node` rebuilds it elsewhere.
        """
        self.alive = False
        for daemon in self._daemons:
            waiting = daemon.kill()
            if waiting is not None:
                self.input_queue.cancel(waiting)
                self._emitter_queue.cancel(waiting)
        self._daemons = []
        for task in sorted(self.tasks.values(), key=lambda t: t.task_id):
            for item in task.kill():
                reaper.account(item)
            reaper.watch(task.queue)
        self.tasks.clear()
        san = self._san
        for shard_id, entry in enumerate(self.routing._entries):
            while entry.buffer:
                item = entry.buffer.popleft()
                reaper.account(item)
                if san is not None:
                    san.forget(item)
            entry.task = None
            entry.paused = True
            if san is not None:
                san.on_orphan(shard_id)
        for item in self.input_queue.drain():
            reaper.account(item)
            if san is not None:
                san.forget(item)
        reaper.watch(self.input_queue)
        for item in self._emitter_queue.drain():
            reaper.account(item)
        reaper.watch(self._emitter_queue)

    def restart_on_node(
        self,
        new_node: int,
        stats: typing.Any,
        rebuild_rate: float,
        spawn_delay: float = 0.0,
        extra_nodes: typing.Sequence[int] = (),
    ) -> typing.Generator:
        """Rebuild the whole executor on ``new_node`` after a fatal crash.

        Simulation process body.  Fresh plumbing is installed first, so
        upstream traffic re-targets the new address and backpressures
        losslessly while the restart pays the process-spawn delay and the
        state rebuild (the only replica died with the old node).

        ``extra_nodes`` are additional pre-allocated cores (one task
        each, duplicates meaning several tasks on one node): because the
        routing table is rebuilt from scratch *before* the daemons start,
        shards spread over all tasks with no reassignment protocol, and
        the per-process rebuilds overlap — both the spawn delay and the
        state rebuild are paid once, not per core.
        """
        started = self.env.now
        self.local_node = new_node
        self.input_queue = Store(self.env, capacity=self.config.input_queue_capacity)
        self._emitter_queue = Store(
            self.env, capacity=self.config.emitter_queue_capacity
        )
        self._receiver_sender = WindowedSender(
            self.env, self.cluster.network, new_node, window=self.config.send_window
        )
        self._emitter_sender = WindowedSender(
            self.env, self.cluster.network, new_node, window=self.config.send_window
        )
        self._remote_senders = {}
        self._control = Resource(self.env)
        self.stores = {new_node: ProcessStateStore(self.name, new_node)}
        self.routing = RoutingTable(self.num_shards)
        self._shard_cost_accum = [0.0] * self.num_shards
        self._shard_load = [0.0] * self.num_shards
        if self._san is not None:
            self._san.reset()
        if spawn_delay > 0:
            yield self.env.timeout(spawn_delay)
        tasks = []
        for node_id in [new_node, *extra_nodes]:
            if node_id != new_node and node_id not in self.stores:
                self.stores[node_id] = ProcessStateStore(self.name, node_id)
                self._remote_senders[node_id] = WindowedSender(
                    self.env, self.cluster.network, node_id,
                    window=self.config.send_window,
                )
            tasks.append(self._create_task(node_id))
        per_store: typing.Dict[int, int] = {}
        for shard_id in range(self.num_shards):
            task = tasks[shard_id % len(tasks)]
            if self.external_state is None:
                shard = ShardState(
                    shard_id,
                    nominal_bytes=self.spec.shard_state_bytes,
                    hot_entries=self.spec.hot_state_entries,
                )
                self.stores[task.node_id].add(shard)
                per_store[task.node_id] = (
                    per_store.get(task.node_id, 0) + shard.nominal_bytes
                )
            self.routing.assign(shard_id, task)
            if self._san is not None:
                self._san.on_assign(shard_id, task.task_id)
        rebuilt_bytes = sum(per_store.values())
        if rebuilt_bytes and rebuild_rate > 0:
            # One rebuild stream per process, all running concurrently.
            yield self.env.timeout(max(per_store.values()) / rebuild_rate)
        if rebuilt_bytes:
            stats.shards_rebuilt.add(self.num_shards)
            stats.state_bytes_rebuilt.add(rebuilt_bytes)
        self.alive = True
        self._daemons = [_ReceiverLoop(self), _EmitterLoop(self)]
        if self._enable_balancer:
            self._daemons.append(self.env.process(self._balance_loop()))
        stats.add_downtime(self.env.now - started)

    def rehome_orphans(
        self,
        orphan_shards: typing.Sequence[int],
        failed_node: int,
        stats: typing.Any,
        rebuild_rate: float,
        lose_state: bool = True,
    ) -> typing.Generator:
        """Re-home orphaned shards onto the surviving tasks.

        Simulation process body.  ``lose_state=True`` models the only
        state replica dying with its process (node crash): each shard is
        rebuilt from scratch at ``rebuild_rate`` bytes/s.  With
        ``lose_state=False`` (core failure — the hosting process lives)
        state migrates instead: free to a same-node task thanks to
        intra-process sharing, serialization + transfer otherwise.
        """
        bus = self.env.telemetry
        san = self._san
        span = bus.begin_span(
            "rehome", source=self.name, failed_node=failed_node,
            lose_state=lose_state,
        )
        proto = REHOME.tracker()
        yield self._control.request()
        try:
            if lose_state and failed_node != self.local_node:
                self.stores.pop(failed_node, None)
                self._remote_senders.pop(failed_node, None)
            survivors = [t for t in self.tasks.values() if not t.stopped]
            orphans = [
                s for s in sorted(orphan_shards) if self.routing.entry(s).task is None
            ]
            if not survivors or not orphans:
                return
            shard_loads = {i: self._shard_load[i] for i in range(self.num_shards)}
            placement = self._balancer.spread_plan(
                shard_loads,
                orphans,
                survivors,
                initial_loads={t: self._task_load(t) for t in survivors},
            )
            proto.advance("placed")
            for shard_id, dst_task in sorted(placement.items()):
                if dst_task.stopped or dst_task.task_id not in self.tasks:
                    live = [t for t in self.tasks.values() if not t.stopped]
                    if not live:
                        return
                    dst_task = min(live, key=lambda t: (self._task_load(t), t.task_id))
                entry = self.routing.entry(shard_id)
                yield from self._restore_shard_state(
                    shard_id, dst_task, stats, rebuild_rate, lose_state
                )
                self.routing.assign(shard_id, dst_task)
                if san is not None:
                    san.on_assign(shard_id, dst_task.task_id)
                flushed = 0
                while entry.buffer:
                    item = entry.buffer.popleft()
                    if isinstance(item, TupleBatch):
                        flushed += item.count
                    yield from self._forward(item, dst_task)
                entry.paused = False
                if flushed:
                    stats.tuples_rerouted.add(flushed)
            proto.advance("restored")
            span.finish(status="ok", orphans=len(orphans))
            proto.advance("done")
        finally:
            span.finish(status="aborted")
            proto.close("aborted")
            self._control.release()

    def _restore_shard_state(
        self,
        shard_id: int,
        dst_task: Task,
        stats: typing.Any,
        rebuild_rate: float,
        lose_state: bool,
    ) -> typing.Generator:
        """Make ``shard_id``'s state available at ``dst_task``'s process."""
        if self.external_state is not None:
            return  # state lives off-cluster; the failure never touched it
        dst_store = self.stores.get(dst_task.node_id)
        if dst_store is None:
            dst_store = self.stores[dst_task.node_id] = ProcessStateStore(
                self.name, dst_task.node_id
            )
        if shard_id in dst_store:
            return
        src_node = None
        if not lose_state:
            for node_id in sorted(self.stores):
                if shard_id in self.stores[node_id]:
                    src_node = node_id
                    break
        if src_node is None:
            # Only replica died: pay the rebuild penalty (replay/recompute).
            shard = ShardState(
                    shard_id,
                    nominal_bytes=self.spec.shard_state_bytes,
                    hot_entries=self.spec.hot_state_entries,
                )
            if rebuild_rate > 0 and shard.nominal_bytes:
                yield self.env.timeout(shard.nominal_bytes / rebuild_rate)
            dst_store.add(shard)
            stats.shards_rebuilt.add(1)
            stats.state_bytes_rebuilt.add(shard.nominal_bytes)
            return
        nbytes = self.stores[src_node].get(shard_id).nominal_bytes
        yield from migrate_shard(
            self.env,
            self.cluster.network,
            self.stores[src_node],
            dst_store,
            shard_id,
            self.migration_clock,
        )
        stats.bytes_remigrated.add(nbytes)

    def __repr__(self) -> str:
        return f"ElasticExecutor({self.name}, cores={self.num_cores})"
