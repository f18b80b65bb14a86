"""Tasks: the data-processing threads of an executor.

One task per assigned CPU core (paper §3).  A task pulls items from its
pending queue strictly FIFO — the property the labeling-tuple drain
protocol relies on — and runs each batch through :class:`_TaskPipeline`,
the one callback-compiled task loop shared by every paradigm: elastic and
static executors own many or one task, an RC executor owns exactly one.
"""

from __future__ import annotations

import typing

from repro.cluster.network import TransferPurpose
from repro.executors.group import stop_loop
from repro.logic.base import StateAccess
from repro.sim import Environment, Event, Store
from repro.sim.events import PENDING, spare_event
from repro.state import ShardState
from repro.topology.batch import LabelTuple, TupleBatch


class StopSignal:
    """Queue sentinel that makes a task exit after in-queue work drains."""

    __slots__ = ()

    _instance: typing.Optional["StopSignal"] = None

    def __new__(cls) -> "StopSignal":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<StopSignal>"


STOP = StopSignal()


class Task:
    """A processing thread bound to one CPU core on one node."""

    __slots__ = (
        "env", "task_id", "node_id", "owner", "queue", "stopped",
        "busy_seconds", "current_item", "process",
    )

    def __init__(
        self,
        env: Environment,
        task_id: int,
        node_id: int,
        owner: typing.Any,
        queue_capacity: int = 8,
    ) -> None:
        self.env = env
        self.task_id = task_id
        self.node_id = node_id
        self.owner = owner
        self.queue = Store(env, capacity=queue_capacity)
        self.stopped = False
        self.busy_seconds = 0.0
        # Batch currently being processed but not yet committed to state.
        # The loop clears it at the commit point, so a crash knows
        # whether the in-progress batch was applied or must count as lost.
        self.current_item: typing.Optional[typing.Any] = None
        self.process = _TaskPipeline(owner, self)

    def kill(self) -> typing.List[typing.Any]:
        """Abruptly terminate the task (hardware failure semantics).

        Returns every unprocessed item: the uncommitted in-progress batch
        (if any), the item a get took in this very instant (if any), then
        everything still queued.  The task's pending get is cancelled so
        late deliveries are not swallowed by a dead loop.
        """
        self.stopped = True
        items: typing.List[typing.Any] = []
        if self.current_item is not None:
            items.append(self.current_item)
            self.current_item = None
        items.extend(self.process.kill())
        items.extend(self.queue.drain())
        return items

    def __repr__(self) -> str:
        return f"Task(id={self.task_id}, node={self.node_id})"


class _TaskPipeline(Event):
    """Callback-compiled task loop + batch execution (one per task).

    The only data path of every paradigm: a slotted FSM driven entirely
    by event callbacks.  Get an item, burn the CPU cost (a wake event on
    the timer heap), apply state + logic, then hand emissions to the
    emitter queue.  The get, wake and put-ack events belong to the loop
    and are re-armed per batch, and one :class:`StateAccess` is re-aimed
    at each batch's shard.  With an external state store the state access is
    the :meth:`ExternalStateService.access` generator, stepped from a
    callback exactly as ``Process._resume`` steps a process body.

    The pipeline *is* the task's completion event (like ``Process``): it
    succeeds when a :class:`StopSignal` is consumed, so ``remove_core``'s
    ``yield victim.process`` and the hybrid controller's drain waits work
    unmodified.

    The owning executor provides, read per batch:

    - ``env``, ``name``, ``cluster``, ``logic``, ``metrics``, ``stall_factor``;
    - ``_shard_lookup`` (key -> shard) and ``stores`` (node -> the
      :class:`ProcessStateStore` holding that process's shards);
    - ``_shard_cost_accum``: per-shard cost charged here, or ``None``
      when the owner charges load elsewhere (RC, at admission);
    - ``_san`` (shard sanitizer, which reads ``routing``), ``external_state``,
      ``operator_in_flight`` and ``latency_probe``, each ``None`` when off;
    - ``_downstream_groups`` (empty for a sink), ``_sink_recorder``,
      ``_emitter_queue``, ``local_node``
      and ``_remote_senders`` (node -> sender back to ``local_node``).
    """

    __slots__ = (
        "task", "ex", "queue",
        "_waiting", "_item", "_cost", "_started", "_emissions", "_ei", "_dead",
        "_access", "_shard", "_state", "_get", "_wake", "_ack",
        "_on_item_cb", "_execute_cb", "_on_eput_cb", "_on_access_cb",
    )

    def __init__(self, executor: typing.Any, task: Task) -> None:
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
        #: The in-progress external state access, and the shard it
        #: returned (set only while ``_execute`` resumes after it).
        self._access: typing.Optional[typing.Generator] = None
        self._shard: typing.Optional[ShardState] = None
        #: Handed to the logic for every batch, aimed at its shard first.
        self._state = StateAccess.__new__(StateAccess)
        env = executor.env
        self._get = spare_event(env)
        self._wake = spare_event(env)
        self._ack = spare_event(env)
        self._on_item_cb = self._on_item
        self._execute_cb = self._execute
        self._on_eput_cb = self._on_emit_put
        self._on_access_cb = self._on_access
        self._pump()

    def _pump(self) -> None:
        self._waiting = self.queue.arm_get(self._get, self._on_item_cb)

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
        trace = item.trace
        if trace is not None:
            # Owners without a receiver thread (RC) never stamp
            # ``received``; their queue wait then counts as delivery.
            trace.setdefault("received", env._now)
            trace["task_start"] = env._now
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
            # The CPU cost as the loop's wake event at now + cost, not a
            # Timeout (one per processed batch).
            env.arm_at(env._now + cost, self._wake, self._execute_cb)
            self._waiting = self._wake
            return
        self._execute()

    def _execute(self, _event: typing.Optional[Event] = None) -> None:
        """Apply state and logic (on waking from the CPU cost, or
        directly), then emit or take the next item."""
        if self._dead:
            return
        self._waiting = None
        ex = self.ex
        env = ex.env
        task = self.task
        batch = self._item
        cost = self._cost
        logic = ex.logic
        shard = self._shard
        if shard is None:
            key = batch.key
            lookup = ex._shard_lookup  # indexed inline: a frame per batch
            shard_id = lookup.table[key] if 0 <= key < lookup.num_keys else lookup[key]
            if ex._shard_cost_accum is not None:
                ex._shard_cost_accum[shard_id] += cost
            if ex._san is not None:
                ex._san.on_access(ex.routing.entry(shard_id), task)
            if logic is not None:
                if ex.external_state is not None:
                    self._access = ex.external_state.access(
                        ex.name, shard_id, task.node_id
                    )
                    self._on_access(None)
                    return
                shard = ex.stores[task.node_id].get(shard_id)
        else:
            self._shard = None
            shard_id = shard.shard_id
        emissions: typing.Sequence[typing.Any] = ()
        if logic is not None:
            state = self._state
            state._shard = shard
            emissions = logic.process(batch, state)
        now = env._now
        ex.metrics.on_processed(now, batch.count, cost)
        if ex.operator_in_flight is not None:
            ex.operator_in_flight.decrement()
        if batch.trace is not None:
            batch.trace["done"] = now
        # Commit point: state applied and accounted.  A crash from here
        # on must not count the batch as lost (and must not re-apply it).
        task.current_item = None
        if not ex._downstream_groups:  # a sink
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

    def _on_access(self, event: typing.Optional[Event]) -> None:
        """Step the external state access until it blocks or returns."""
        if self._dead:
            return
        self._waiting = None
        access = self._access
        while True:
            try:
                if event is None:
                    target = next(access)
                elif event._ok:
                    target = access.send(event._value)
                else:
                    target = access.throw(event._value)
            except StopIteration as done:
                self._access = None
                self._shard = done.value
                self._execute()
                return
            if target.callbacks is None:
                # Already fired: consume its value and keep stepping.
                event = target
                continue
            self._waiting = target
            target.callbacks.append(self._on_access_cb)
            return

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
            self._waiting = ex._emitter_queue.arm_put(
                self._ack, out, self._on_eput_cb
            )
        else:
            self._waiting = ex._remote_senders[task.node_id].send(
                ex.local_node, ex._emitter_queue, out,
                out.total_bytes, TransferPurpose.REMOTE_TASK,
                self._ack, self._on_eput_cb,
            )

    def _on_emit_put(self, _event: Event) -> None:
        if self._dead:
            return
        self._waiting = None
        self._next_emission()

    def _finish(self) -> None:
        """Account the batch's busy time and wait on the next item."""
        task = self.task
        task.busy_seconds += self.ex.env._now - self._started
        self._item = None
        self._waiting = self.queue.arm_get(self._get, self._on_item_cb)

    def kill(self) -> typing.List[typing.Any]:
        """Terminate abruptly (crash semantics); same contract as
        ``Process.kill`` except for the return: succeeds the completion
        event so waiters are not stranded, withdraws a pending get and
        returns the item a fired get already holds (see :func:`stop_loop`)."""
        if self._value is not PENDING:
            return []
        held = stop_loop(
            self, self.queue, self._on_item_cb, self._execute_cb,
            self._on_eput_cb, self._on_access_cb,
        )
        if self._access is not None:
            self._access.close()
            self._access = None
        self.succeed(None)
        return held
