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
from repro.executors.config import (
    BALANCE_TRIGGER_MARGIN,
    CONTROL_BYTES,
    EMITTER_QUEUE_CAPACITY,
    INPUT_QUEUE_CAPACITY,
    LOAD_SMOOTHING,
    REASSIGNMENT_OVERHEAD,
    REMOTE_PROCESS_SPAWN_SECONDS,
    SEND_WINDOW,
    TASK_QUEUE_CAPACITY,
    THETA,
    ExecutorConfig,
)
from repro.executors.group import _EmitterLoop, stop_loop
from repro.executors.routing import RoutingTable
from repro.executors.stats import ExecutorMetrics, ReassignmentRecord, ReassignmentStats
from repro.executors.task import STOP, Task
from repro.logic.base import OperatorLogic
from repro.sim import Environment, Event, Resource, Store
from repro.sim.events import spare_event
from repro.state import (
    MigrationClock,
    ProcessStateStore,
    ShardState,
    migrate_shard,
    restore_shard,
)
from repro.telemetry.events import NULL_SPAN
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
    resume and the StopIteration machinery on every hop.  The loop
    re-arms its own get and put-ack events; a remote batch travels as
    one :class:`_Delivery`, built when the window is requested.

    Plumbing handles are bound once at construction, mirroring the
    generator's locals: crash recovery replaces the executor's plumbing
    and then builds a *fresh* loop, so the bindings can never go stale.
    """

    __slots__ = (
        "env", "input_queue", "get", "lookup", "entries", "record_arrival",
        "local_node", "sender", "window_request",
        "_waiting", "_dead", "_get", "_ack",
        "_on_batch_cb", "_on_put_cb",
    )

    def __init__(self, executor: "ElasticExecutor") -> None:
        env = executor.env
        self.env = env
        self.input_queue = executor.input_queue
        self.get = executor.input_queue.arm_get
        self.lookup = executor._shard_lookup
        self.entries = executor.routing._entries
        # ExecutorMetrics.on_arrival's one line, bound here: a frame per batch.
        self.record_arrival = executor.metrics._in_rates.record
        self.local_node = executor.local_node
        sender = executor._receiver_sender
        self.sender = sender
        self.window_request = sender._window.arm_request
        self._dead = False
        self._get = spare_event(env)
        self._ack = spare_event(env)
        self._on_batch_cb = self._on_batch
        self._on_put_cb = self._on_put
        self._waiting: typing.Optional[Event] = self.get(self._get, self._on_batch_cb)

    def _on_batch(self, event: Event) -> None:
        if self._dead:
            return
        batch = event._value
        env = self.env
        if batch.trace is not None:
            batch.trace["received"] = env._now
        count = batch.count
        self.record_arrival(env._now, count, count * batch.size_bytes)
        key = batch.key
        lookup = self.lookup  # indexed inline: a frame per batch
        shard_id = lookup.table[key] if 0 <= key < lookup.num_keys else lookup[key]
        entry = self.entries[shard_id]
        if entry.paused:
            entry.buffer.append(batch)
            self._waiting = self.get(self._get, self._on_batch_cb)
            return
        task = entry.task
        if task.node_id == self.local_node:
            self._waiting = task.queue.arm_put(self._ack, batch, self._on_put_cb)
            return
        delivery = _Delivery(
            self.sender, task.node_id, task.queue, batch,
            count * batch.size_bytes, TransferPurpose.REMOTE_TASK,
        )
        self.window_request(delivery, delivery._on_grant)
        delivery.callbacks.append(self._on_put_cb)
        self._waiting = delivery

    def _on_put(self, _event: Event) -> None:
        """The put (local) or the window grant (remote) went through:
        wait on the next batch."""
        if self._dead:
            return
        self._waiting = self.get(self._get, self._on_batch_cb)

    def kill(self) -> typing.List[typing.Any]:
        """Stop the loop (crash semantics); returns the batch its get
        held (see :func:`stop_loop`), or the batch of a remote send
        still waiting for its window grant, which is then withdrawn."""
        waiting = self._waiting
        held = stop_loop(self, self.input_queue, self._on_batch_cb, self._on_put_cb)
        if isinstance(waiting, _Delivery) and waiting.callbacks is not None:
            held.append(waiting.withdraw())
        return held


class _Recovery(typing.NamedTuple):
    """How re-homing brings back an orphaned shard's state."""

    #: node -> store that may still hold the state (empty when the only
    #: replica died with its process).
    replicas: typing.Mapping[int, ProcessStateStore]
    #: :class:`repro.metrics.recovery.RecoveryStats` counting the cost.
    stats: typing.Any
    #: Bytes/s of a rebuild from scratch.
    rebuild_rate: float


class ElasticExecutor:
    """One elastic executor of an operator."""

    __slots__ = (
        "env", "cluster", "spec", "index", "name", "local_node", "logic",
        "config", "reassignment_stats", "migration_clock", "num_shards",
        "_shard_lookup", "external_state", "input_queue", "_emitter_queue",
        "routing", "metrics", "tasks", "_next_task_id", "stores",
        "_receiver_sender", "_emitter_sender", "_remote_senders", "_control",
        "_balancer", "_shard_cost_accum", "_shard_load", "_downstream_groups",
        "_sink_recorder", "_started", "_enable_balancer", "_receiver", "_emitter",
        "_balance_daemon", "alive", "_stranded",
        "stall_factor", "operator_in_flight", "latency_probe",
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
        #: Tier-2 routing (key -> shard).  The hash is static, so the
        #: table is precomputed and shared across the operator's executors.
        self._shard_lookup = shard_lookup(
            self.num_shards, spec.key_space.num_keys
        )

        #: Optional :class:`repro.state.external.ExternalStateService` —
        #: when set, shard state lives in the external store (every batch
        #: pays an access round trip; reassignment migrates nothing).
        self.external_state = external_state
        self.input_queue = Store(env, capacity=INPUT_QUEUE_CAPACITY)
        self._emitter_queue = Store(env, capacity=EMITTER_QUEUE_CAPACITY)
        self.routing = RoutingTable(self.num_shards)
        self.metrics = ExecutorMetrics()
        self.tasks: typing.Dict[int, Task] = {}
        self._next_task_id = 0
        #: One state store per process: local node plus each remote node.
        self.stores: typing.Dict[int, ProcessStateStore] = {
            local_node: ProcessStateStore(self.name, local_node)
        }
        for shard_id in range(self.num_shards):
            shard = ShardState.fresh(shard_id, spec)
            if self.external_state is not None:
                self.external_state.register_shard(self.name, shard)
            else:
                self.stores[local_node].add(shard)
        #: Senders: the main process's (receiver + emitter share the node's
        #: connections but have independent windows) and one per remote node.
        self._receiver_sender = WindowedSender(
            env, cluster.network, local_node, window=SEND_WINDOW
        )
        self._emitter_sender = WindowedSender(
            env, cluster.network, local_node, window=SEND_WINDOW
        )
        self._remote_senders: typing.Dict[int, WindowedSender] = {}
        #: Serializes membership changes and balancing rounds.
        self._control = Resource(env)
        self._balancer = ShardBalancer(theta=THETA)
        self._shard_cost_accum = [0.0] * self.num_shards
        self._shard_load = [0.0] * self.num_shards
        #: Shards orphaned mid-move, for the next :meth:`rehome_orphans`.
        self._stranded: typing.List[int] = []
        self._downstream_groups: typing.List[typing.Any] = []
        self._sink_recorder: typing.Optional[typing.Callable] = None
        self._started = False
        self._enable_balancer = True
        #: The receiver and emitter loops and the balance process, set by
        #: :meth:`_start_daemons`.  A crash leaves the dead ones in place:
        #: killing them again is a no-op.
        self._receiver: typing.Any = None
        self._emitter: typing.Any = None
        self._balance_daemon: typing.Any = None
        #: False between a fatal crash and the completed restart; the
        #: scheduler ignores dead executors.
        self.alive = True
        #: Gray-failure hook: relative processing speed (0.25 = 4x slower).
        self.stall_factor = 1.0
        #: Set by the hybrid controller: operator-level in-flight counter
        #: decremented as this executor completes batches.
        self.operator_in_flight: typing.Optional[typing.Any] = None
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
            or len(self.input_queue) >= INPUT_QUEUE_CAPACITY
        )

    def start(self, initial_cores: int = 1) -> None:
        """Create the first task(s) on the local node and spawn daemons."""
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        if initial_cores < 1:
            raise ValueError("an executor needs at least one core")
        self._started = True
        tasks = [self._create_task(self.local_node) for _ in range(initial_cores)]
        self._assign_round_robin(tasks)
        self._start_daemons()

    def _assign_round_robin(self, tasks: typing.Sequence[Task]) -> None:
        """Initial placement: shards spread round-robin over ``tasks``."""
        for shard_id in range(self.num_shards):
            self.routing.assign(shard_id, tasks[shard_id % len(tasks)])

    def _start_daemons(self) -> None:
        self._receiver = _ReceiverLoop(self)
        self._emitter = _EmitterLoop(self)
        if self._enable_balancer:
            self._balance_daemon = self.env.process(self._balance_loop())

    # -- data plane -------------------------------------------------------

    def _forward(self, item: typing.Any, task: Task) -> Event:
        """Route an item to a task, over the network for remote tasks;
        returns the one event to wait on."""
        nbytes = item.total_bytes if isinstance(item, TupleBatch) else CONTROL_BYTES
        return self._receiver_sender.send_event(
            task.node_id, task.queue, item, nbytes, TransferPurpose.REMOTE_TASK
        )

    # -- elasticity: core membership --------------------------------------

    def _create_task(self, node_id: int) -> Task:
        task = Task(
            self.env,
            self._next_task_id,
            node_id,
            owner=self,
            queue_capacity=TASK_QUEUE_CAPACITY,
        )
        self._next_task_id += 1
        self.tasks[task.task_id] = task
        self.routing.register_task(task)
        return task

    def _open_process(self, node_id: int) -> bool:
        """Give ``node_id`` a process of this executor — its state store
        and a sender back to the main process — unless it has one; True
        when a remote process is new (it pays the spawn delay)."""
        if node_id == self.local_node or node_id in self.stores:
            return False
        self.stores[node_id] = ProcessStateStore(self.name, node_id)
        self._remote_senders[node_id] = WindowedSender(
            self.env, self.cluster.network, node_id, window=SEND_WINDOW,
        )
        return True

    def add_core(self, node_id: int) -> typing.Generator:
        """Grow by one task on ``node_id`` and rebalance shards onto it.

        Simulation process body.  Core accounting is the scheduler's job.
        Gives up once this executor has crashed (a crash clears ``alive``,
        a restart replaces the control lock): a restart rebuilds it from
        scratch.
        """
        control = self._control
        yield control.request()
        try:
            if not self.alive or self._control is not control:
                return
            if not self.cluster.node(node_id).alive:
                return  # the node crashed after this growth was planned
            if self._open_process(node_id):
                yield self.env.timeout(REMOTE_PROCESS_SPAWN_SECONDS)
                if not self.alive or self._control is not control:
                    return
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
            control.release()

    def remove_core(self, node_id: int) -> typing.Generator:
        """Shrink by one task on ``node_id``, evacuating its shards first.

        Gives up once this executor has crashed, like :meth:`add_core`.
        """
        control = self._control
        yield control.request()
        try:
            if not self.alive or self._control is not control:
                return
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
                yield from self._move_shard(shard_id, victim, dst_task, draining=victim)
            if not self.alive or self._control is not control:
                return
            if self.routing.shards_of(victim):
                # Every other task crashed mid-evacuation, so the victim
                # kept the shards it could not hand over: it is the last
                # core now.
                raise ValueError(f"{self.name} cannot drop its last core")
            yield self._forward(STOP, victim)
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
            control.release()

    # -- elasticity: intra-executor load balancing ------------------------

    def _task_load(self, task: Task) -> float:
        return sum(self._shard_load[s] for s in self.routing.shards_of(task))

    def _snapshot_loads(self) -> typing.Dict[int, float]:
        """Blend the accumulated per-shard cost into smoothed loads."""
        alpha = LOAD_SMOOTHING
        interval = self.config.balance_interval
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
                trigger = THETA * BALANCE_TRIGGER_MARGIN
                delta = self.imbalance()
                if delta > trigger:
                    self.env.telemetry.emit(
                        "rebalance_triggered", source=self.name,
                        imbalance=delta, trigger=trigger,
                    )
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
            # leave a shard pointing at a task that is already gone, and
            # recovery owns it.
            assignment = {
                shard_id: task
                for shard_id, task in self.routing.assignment().items()
                if task.task_id in self.tasks
            }
            moves = self._balancer.plan(
                shard_loads, assignment, list(self.tasks.values())
            )
            for move in moves:
                yield from self._move_shard(move.shard_id, move.src, move.dst)
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
                yield from self._move_shard(shard_id, task, deficits[0])

    # -- consistent shard reassignment (paper §3.3) ------------------------

    def _move_shard(
        self,
        shard_id: int,
        src_task: typing.Optional[Task],
        dst_task: Task,
        draining: typing.Optional[Task] = None,
        recovery: typing.Any = None,
    ) -> typing.Generator:
        """Move one shard from ``src_task`` to ``dst_task`` (paper §3.3).

        The one shard move of balancing, shrinking and crash re-homing.
        ``src_task`` is the owner the caller planned with; the move gives
        up (returns False) if the shard's owner is no longer that task.
        A live source is drained by the labeling-tuple chase and migrates
        its state.  A shard orphaned by a crash (``src_task`` None) has
        nothing to chase — the reaper already dead-lettered its queue —
        and gets its state back through :func:`restore_shard`, as
        ``recovery`` (a :class:`_Recovery`) says.  Should ``dst_task``
        die mid-move, the fallback is the least-loaded live task other
        than ``draining`` (a task being removed); with none left a live
        source keeps the shard and an orphan stays orphaned (returns
        False).
        """
        entry = self.routing.entry(shard_id)
        if entry.task is not src_task:
            # A crash orphaned the shard, or recovery re-homed it, since
            # the caller planned: recovery owns it now.
            return False
        if src_task is dst_task:
            return True
        bus = self.env.telemetry
        # An orphaned move is one step of the caller's ``rehome`` span.
        span = NULL_SPAN if src_task is None else bus.begin_span(
            "reassign", source=self.name, shard=shard_id
        )
        try:
            started = self.env.now
            if src_task is not None:
                yield self.env.timeout(REASSIGNMENT_OVERHEAD)
                # 1. Pause routing for the shard; new arrivals buffer in the
                # entry.  (The crash already paused an orphan.)
                entry.pause()
            span.mark("pause")
            if src_task is not None:
                # 2. Drain: a labeling tuple chases all pending tuples of
                # the shard.
                label_event = self.env.event()
                yield self._forward(LabelTuple(shard_id, label_event), src_task)
                yield label_event
            sync_done = self.env.now
            span.mark("drain")
            # Re-validate after the drain: a crash may have intervened (dead
            # queues succeed their labels via the dead-letter reaper).
            if entry.task is not src_task:
                return False
            dst = self._live_destination(dst_task, draining) or src_task
            if dst is None:
                return False
            if dst is src_task:
                yield from self._install(entry, dst)
                return True
            # 3. State: an orphan's is restored or rebuilt; a live source's
            # migrates only across processes (intra-process sharing).  With
            # an external state store nothing ever moves — that design's
            # whole appeal (its cost lives in every state access instead).
            migrated_bytes = 0
            inter_node = src_task is not None and src_task.node_id != dst.node_id
            if self.external_state is not None:
                pass
            elif src_task is None:
                yield from restore_shard(
                    self.env, self.cluster.network, recovery.replicas,
                    self.stores[dst.node_id], shard_id, self.spec,
                    recovery.stats, recovery.rebuild_rate, self.migration_clock,
                )
            elif inter_node:
                src_store = self.stores[src_task.node_id]
                dst_store = self.stores[dst.node_id]
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
            if dst.stopped or dst.task_id not in self.tasks:
                # The destination died with the state in flight: leave the
                # shard paused and orphaned for recovery to re-home.
                if entry.task is src_task:
                    self.routing.orphan_shard(shard_id)
                    self._stranded.append(shard_id)
                return False
            migration_done = self.env.now
            span.mark("migration")
            # 4. Update the routing table, flush buffered tuples, resume.
            flushed = yield from self._install(entry, dst)
            span.mark("routing_update")
            if src_task is None:
                if flushed:
                    recovery.stats.tuples_rerouted.add(flushed)
            else:
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
            return True
        finally:
            # Early returns and crash kills land here with the span still
            # open: close it as aborted so exported logs stay well-formed.
            span.finish(status="aborted")

    # -- fault recovery (fail-stop crashes, see repro.faults) --------------

    def _kill_task(self, task: Task, reaper: typing.Any) -> typing.List[int]:
        """Destroy one task abruptly; dead-letter everything it held.

        Returns the task's orphaned shard ids.  Lock-free on purpose: the
        hardware is gone *now*, and an in-flight reassignment may be
        blocked on a label sitting in this very queue — the reaper
        releases it.
        """
        for item in task.kill():
            reaper.account(item)
        orphans = self.routing.orphan_task(task)
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
        # A batch the receiver or the emitter took in this very instant
        # dies ahead of the rest of its queue.
        held_input = self._receiver.kill()
        held_emitted = self._emitter.kill()
        if self._balance_daemon is not None:
            self._balance_daemon.kill()
        for task in sorted(self.tasks.values(), key=lambda t: t.task_id):
            for item in task.kill():
                reaper.account(item)
            reaper.watch(task.queue)
        self.tasks.clear()
        for entry in self.routing._entries:
            buffer = entry.pause()
            while buffer:
                reaper.account(buffer.popleft())
            entry.task = None
        for item in [*held_input, *self.input_queue.drain()]:
            reaper.account(item)
        reaper.watch(self.input_queue)
        for item in [*held_emitted, *self._emitter_queue.drain()]:
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
        state rebuild are paid once, not per core.  Returns False when
        ``new_node`` crashed under the restart (nothing started).
        """
        started = self.env.now
        self.local_node = new_node
        self.input_queue = Store(self.env, capacity=INPUT_QUEUE_CAPACITY)
        self._emitter_queue = Store(
            self.env, capacity=EMITTER_QUEUE_CAPACITY
        )
        self._receiver_sender = WindowedSender(
            self.env, self.cluster.network, new_node, window=SEND_WINDOW
        )
        self._emitter_sender = WindowedSender(
            self.env, self.cluster.network, new_node, window=SEND_WINDOW
        )
        self._remote_senders = {}
        self._control = Resource(self.env)
        self.tasks.clear()
        self.stores = {new_node: ProcessStateStore(self.name, new_node)}
        self.routing = RoutingTable(self.num_shards)
        self._shard_cost_accum = [0.0] * self.num_shards
        self._shard_load = [0.0] * self.num_shards
        self._stranded = []
        if spawn_delay > 0:
            yield self.env.timeout(spawn_delay)
        # A node that crashes under the restart takes the core reserved on
        # it: the rebuild starts over on the nodes left.  Nothing runs
        # before the rebuild lands, so nothing is lost with it.
        nodes = [new_node, *extra_nodes]
        while True:
            nodes = [n for n in nodes if self.cluster.is_alive(n)]
            if new_node not in nodes:
                return False  # the main process died again
            per_store: typing.Dict[int, int] = {}
            if self.external_state is None:
                for shard_id in range(self.num_shards):
                    node_id = nodes[shard_id % len(nodes)]
                    per_store[node_id] = (
                        per_store.get(node_id, 0) + self.spec.shard_state_bytes
                    )
            rebuilt_bytes = sum(per_store.values())
            if rebuilt_bytes and rebuild_rate > 0:
                # One rebuild stream per process, all running concurrently.
                yield self.env.timeout(max(per_store.values()) / rebuild_rate)
            if all(self.cluster.is_alive(n) for n in nodes):
                break
        tasks = []
        for node_id in nodes:
            self._open_process(node_id)
            tasks.append(self._create_task(node_id))
        self._assign_round_robin(tasks)
        if self.external_state is None:
            for shard_id, task in self.routing.assignment().items():
                self.stores[task.node_id].add(ShardState.fresh(shard_id, self.spec))
        if rebuilt_bytes:
            stats.shards_rebuilt.add(self.num_shards)
            stats.state_bytes_rebuilt.add(rebuilt_bytes)
        self.alive = True
        self._start_daemons()
        stats.add_downtime(self.env.now - started)
        return True

    def rehome_orphans(
        self,
        orphan_shards: typing.Sequence[int],
        failed_node: int,
        stats: typing.Any,
        rebuild_rate: float,
        lose_state: bool = True,
    ) -> typing.Generator:
        """Re-home orphaned shards onto the surviving tasks.

        Simulation process body: spread the orphans over the survivors,
        then move each one (:meth:`_move_shard`).  ``lose_state=True``
        models the only state replica dying with its process (node
        crash): each shard is rebuilt from scratch at ``rebuild_rate``
        bytes/s.  With ``lose_state=False`` (core failure — the hosting
        process lives) state migrates instead: free to a same-node task
        thanks to intra-process sharing, serialization + transfer
        otherwise.
        """
        bus = self.env.telemetry
        span = bus.begin_span(
            "rehome", source=self.name, failed_node=failed_node,
            lose_state=lose_state,
        )
        yield self._control.request()
        try:
            if lose_state and failed_node != self.local_node:
                self.stores.pop(failed_node, None)
                self._remote_senders.pop(failed_node, None)
            survivors = [t for t in self.tasks.values() if not t.stopped]
            orphans = [
                s for s in sorted({*orphan_shards, *self._stranded})
                if self.routing.entry(s).task is None
            ]
            self._stranded.clear()
            if not survivors or not orphans:
                return
            shard_loads = {i: self._shard_load[i] for i in range(self.num_shards)}
            placement = self._balancer.spread_plan(
                shard_loads,
                orphans,
                survivors,
                initial_loads={t: self._task_load(t) for t in survivors},
            )
            # State living off-cluster never saw the failure; state that
            # died with its process (lose_state) is rebuilt.
            recovery = _Recovery({} if lose_state else self.stores, stats, rebuild_rate)
            for shard_id, dst_task in sorted(placement.items()):
                # Unmoved shards stay orphaned; stranded ones wait for the next re-home.
                yield from self._move_shard(
                    shard_id, None, dst_task, recovery=recovery
                )
            span.finish(status="ok", orphans=len(orphans))
        finally:
            span.finish(status="aborted")
            self._control.release()

    # -- steps of the shard move ------------------------------------------

    def _live_destination(
        self, task: Task, draining: typing.Optional[Task] = None
    ) -> typing.Optional[Task]:
        """``task`` if it still runs, else the least-loaded live task other
        than ``draining`` (None when there is none)."""
        if not task.stopped and task.task_id in self.tasks:
            return task
        live = [
            t for t in self.tasks.values() if not t.stopped and t is not draining
        ]
        if not live:
            return None
        return min(live, key=lambda t: (self._task_load(t), t.task_id))

    def _install(self, entry: typing.Any, task: Task) -> typing.Generator:
        """Route ``entry``'s shard to ``task``, flush its pause buffer there
        and resume it.  Returns the number of buffered tuples flushed."""
        if entry.task is not task:
            self.routing.assign(entry.shard_id, task)
        flushed = 0
        buffer = entry.buffer
        while buffer:
            item = buffer.popleft()
            if isinstance(item, TupleBatch):
                flushed += item.count
            yield self._forward(item, task)
        if entry.task is task:
            # A crash of ``task`` during the flush orphaned the shard: it
            # stays paused for recovery.
            entry.paused = False
        return flushed

    def __repr__(self) -> str:
        return f"ElasticExecutor({self.name}, cores={self.num_cores})"
