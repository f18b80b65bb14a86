"""The resource-centric (RC) baseline (paper §2.2, evaluated throughout §5).

Executors are single-core, as in the static paradigm, but the operator's
key space is repartitioned dynamically: shards move between executors to
balance load, and executors are created/deleted to scale the operator.
Every repartitioning requires global synchronization — pause all upstream
executors, drain in-flight tuples, migrate state, update all upstream
routing tables — which is exactly the cost Elasticutor eliminates.

For fair comparison (as in the paper) RC reuses the same FFD balancer,
the same performance model (injected by the runtime) and intra-process
state sharing: executors of the same operator on one node share a state
store, so intra-node shard moves migrate nothing.
"""

from __future__ import annotations

import typing

from repro.cluster.cores import CoreAllocationError
from repro.cluster.network import TransferPurpose
from repro.cluster.node import Cluster
from repro.executors.balancer import ShardBalancer
from repro.executors.channels import WindowedSender
from repro.executors.config import (
    CONTROL_BYTES,
    EMITTER_QUEUE_CAPACITY,
    INPUT_QUEUE_CAPACITY,
    SEND_WINDOW,
    THETA,
)
from repro.executors.gate import STALLED, OperatorBarrier
from repro.executors.group import _EmitterLoop
from repro.executors.stats import ExecutorMetrics, ReassignmentRecord, ReassignmentStats
from repro.executors.task import STOP, Task
from repro.logic.base import OperatorLogic
from repro.sim import Environment, Resource, Store
from repro.state import (
    MigrationClock,
    ProcessStateStore,
    ShardState,
    migrate_shard,
    restore_shard,
)
from repro.topology.batch import TupleBatch
from repro.topology.keys import shard_lookup
from repro.topology.operator import OperatorSpec


class RCExecutor:
    """A single-core executor under operator-level key repartitioning.

    Runs the shared compiled data path (:class:`_TaskPipeline` and
    :class:`_EmitterLoop`).  Of the loops' owner contract, the shard
    table, state store, in-flight ledger and latency probe are the
    manager's operator-level ones.
    """

    __slots__ = (
        "env", "cluster", "spec", "index", "name", "node_id", "local_node",
        "manager", "logic", "metrics", "task", "input_queue",
        "_emitter_queue", "_emitter_sender", "_downstream_groups",
        "_sink_recorder", "alive", "stall_factor", "_emitter",
        "_shard_lookup", "stores", "operator_in_flight", "_shard_cost_accum",
        "_remote_senders", "external_state",
    )

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        spec: OperatorSpec,
        index: int,
        node_id: int,
        manager: "RCOperatorManager",
        logic: typing.Optional[OperatorLogic] = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.spec = spec
        self.index = index
        self.name = f"{spec.name}[rc{index}]"
        self.node_id = node_id
        self.local_node = node_id
        self.manager = manager
        self.logic = logic if logic is not None else spec.logic
        self.metrics = ExecutorMetrics()
        self._shard_lookup = manager.shard_lookup
        self.stores = {node_id: manager.store_for_node(node_id)}
        self.operator_in_flight = manager.in_flight
        #: Shard load is charged at admission (:meth:`RCOperatorManager.record_arrival`).
        self._shard_cost_accum = None
        self._remote_senders: typing.Dict[int, WindowedSender] = {}
        self.external_state = None
        self._emitter_queue = Store(env, capacity=EMITTER_QUEUE_CAPACITY)
        self._emitter_sender = WindowedSender(
            env, cluster.network, node_id, window=SEND_WINDOW
        )
        self._downstream_groups: typing.List[typing.Any] = []
        self._sink_recorder: typing.Optional[typing.Callable] = None
        self.alive = True
        #: Gray-failure hook: relative processing speed (0.25 = 4x slower).
        self.stall_factor = 1.0
        # One thread, one queue: the input queue *is* the task queue.
        self.task = Task(
            env, task_id=index, node_id=node_id, owner=self,
            queue_capacity=INPUT_QUEUE_CAPACITY,
        )
        self.input_queue = self.task.queue
        self._emitter = _EmitterLoop(self)

    @property
    def latency_probe(self) -> typing.Optional[typing.Any]:
        """The manager's probe (the runtime attaches it after bootstrap)."""
        return self.manager.latency_probe

    def connect(
        self,
        downstream_groups: typing.Sequence[typing.Any],
        sink_recorder: typing.Optional[typing.Callable] = None,
    ) -> None:
        self._downstream_groups = list(downstream_groups)
        self._sink_recorder = sink_recorder

    def crash(self, reaper: typing.Any) -> None:
        """Fail-stop this executor: its core (or whole node) died.

        Queued and in-flight items are dead-lettered — the reaper counts
        the losses and forgets them from the operator's in-flight ledger.
        The manager's recovery protocol re-homes the shards afterwards.
        """
        self.alive = False
        for item in self.task.kill():
            reaper.account(item)
        reaper.watch(self.task.queue)
        # Emitter-queue batches were already committed (counted processed,
        # settled in the in-flight ledger) — only their emission is lost.
        for item in [*self._emitter.kill(), *self._emitter_queue.drain()]:
            reaper.account(item, committed=True)
        reaper.watch(self._emitter_queue, committed=True)

    def __repr__(self) -> str:
        return f"RCExecutor({self.name}, node={self.node_id})"


class RCOperatorManager:
    """Operator-level elasticity controller for the RC baseline.

    Owns the dynamic shard-to-executor assignment, executes repartitioning
    rounds with global synchronization, and (optionally) scales the
    operator by creating/deleting executors according to an injected
    resource-allocation policy.
    """

    #: Rebalance only when δ exceeds θ by this factor (noise hysteresis).
    #: Each RC rebalance pays a full global synchronization, so the margin
    #: is set well above shard-load sampling noise.
    REBALANCE_TRIGGER_MARGIN = 1.3
    #: Extra smoothing for RC shard loads (slower, steadier than the
    #: intra-executor balancer, whose moves are nearly free).
    LOAD_SMOOTHING = 0.3

    __slots__ = (
        "env", "cluster", "spec", "reassignment_stats",
        "migration_clock", "manage_interval",
        "_logic_factory", "total_shards", "shard_lookup", "barrier", "gate",
        "in_flight", "executors", "_assignment", "_stores",
        "_balancer", "_shard_cost_accum",
        "_shard_load", "_next_index", "_downstream_groups",
        "_sink_recorder", "target_executors_fn", "_placement_cursor",
        "repartition_count", "_protocol_lock", "_recovering", "latency_probe",
    )

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        spec: OperatorSpec,
        reassignment_stats: typing.Optional[ReassignmentStats] = None,
        migration_clock: typing.Optional[MigrationClock] = None,
        manage_interval: float = 1.0,
        manager_node: int = 0,
        logic_factory: typing.Optional[typing.Callable[[], OperatorLogic]] = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.spec = spec
        self.reassignment_stats = reassignment_stats or ReassignmentStats()
        self.migration_clock = migration_clock or MigrationClock()
        self.manage_interval = manage_interval
        self._logic_factory = logic_factory
        self.total_shards = spec.total_shards
        #: Operator-level key -> shard table (static hash), precomputed
        #: and shared.
        self.shard_lookup = shard_lookup(
            self.total_shards, spec.key_space.num_keys
        )
        self.barrier = OperatorBarrier(env, cluster, manager_node)
        #: The barrier's gate and ledger, read per batch by :class:`RCGroup`.
        self.gate = self.barrier.gate
        self.in_flight = self.barrier.in_flight
        self.executors: typing.List[RCExecutor] = []
        self._assignment: typing.Dict[int, RCExecutor] = {}
        self._stores: typing.Dict[int, ProcessStateStore] = {}
        self._balancer = ShardBalancer(theta=THETA)
        self._shard_cost_accum = [0.0] * self.total_shards
        self._shard_load = [0.0] * self.total_shards
        self._next_index = 0
        self._downstream_groups: typing.List[typing.Any] = []
        self._sink_recorder: typing.Optional[typing.Callable] = None
        #: Per-shard end-to-end latency sketches shared by this operator's
        #: executors; None unless telemetry is enabled.
        self.latency_probe: typing.Optional[typing.Any] = None
        #: Injected policy: manager -> desired executor count (or None).
        self.target_executors_fn: typing.Optional[typing.Callable] = None
        #: Node placement cursor for new executors (round robin).
        self._placement_cursor = 0
        self.repartition_count = 0
        #: Serializes repartitioning rounds against crash recovery.
        self._protocol_lock = Resource(env)
        self._recovering = False

    # -- wiring -----------------------------------------------------------

    def connect(
        self,
        downstream_groups: typing.Sequence[typing.Any],
        sink_recorder: typing.Optional[typing.Callable] = None,
    ) -> None:
        self._downstream_groups = list(downstream_groups)
        self._sink_recorder = sink_recorder
        for executor in self.executors:
            executor.connect(downstream_groups, sink_recorder)

    def connect_upstreams(self, instances: typing.Sequence[typing.Any]) -> None:
        """Register the upstream executor instances to synchronize with."""
        self.barrier.upstreams = list(instances)

    def bootstrap(self, num_executors: int, nodes: typing.Sequence[int]) -> None:
        """Create the initial executors and spread shards round-robin."""
        if num_executors < 1:
            raise ValueError("need at least one executor")
        for i in range(num_executors):
            self._create_executor(nodes[i % len(nodes)])
        for shard_id in range(self.total_shards):
            executor = self.executors[shard_id % len(self.executors)]
            self._assignment[shard_id] = executor
            self.store_for_node(executor.node_id).add(
                ShardState.fresh(shard_id, self.spec)
            )

    def start(self) -> None:
        self.env.process(self._manage_loop())

    # -- routing / state --------------------------------------------------

    def executor_for_shard(self, shard_id: int) -> RCExecutor:
        return self._assignment[shard_id]

    def assignment_snapshot(self) -> typing.Dict[int, RCExecutor]:
        return dict(self._assignment)

    def store_for_node(self, node_id: int) -> ProcessStateStore:
        """Executors of this operator on one node share a state store."""
        store = self._stores.get(node_id)
        if store is None:
            store = ProcessStateStore(self.spec.name, node_id)
            self._stores[node_id] = store
        return store

    def record_arrival(
        self, executor: RCExecutor, batch: TupleBatch, shard_id: int
    ) -> None:
        """Called by :class:`RCGroup` when a batch of ``shard_id`` is admitted."""
        now = self.env.now
        executor.metrics.on_arrival(now, batch.count, batch.count * batch.size_bytes)
        cost = executor.logic.cpu_seconds(batch) if executor.logic else 0.0
        self._shard_cost_accum[shard_id] += cost

    # -- aggregate metrics -------------------------------------------------

    def arrival_rate(self, now: float) -> float:
        return sum(ex.metrics.arrival_rate(now) for ex in self.executors)

    def service_rate(self) -> float:
        """Mean per-core µ across executors."""
        if not self.executors:
            return 1.0
        return sum(ex.metrics.service_rate() for ex in self.executors) / len(
            self.executors
        )

    # -- scaling / balancing ----------------------------------------------

    def _create_executor(self, node_id: int) -> RCExecutor:
        logic = self._logic_factory() if self._logic_factory else self.spec.logic
        executor = RCExecutor(
            self.env, self.cluster, self.spec, self._next_index, node_id,
            manager=self, logic=logic,
        )
        self._next_index += 1
        executor.connect(self._downstream_groups, self._sink_recorder)
        self.executors.append(executor)
        self.cluster.cores.allocate(executor.name, node_id, 1)
        return executor

    def _drop_executor(self, executor: RCExecutor) -> None:
        """Forget a retired or crashed executor and return its core."""
        if executor in self.executors:
            self.executors.remove(executor)
        try:
            self.cluster.cores.release(executor.name, executor.node_id, 1)
        except CoreAllocationError:
            pass  # its node crashed; the holdings were already withdrawn

    def _pick_node_for_new_executor(self) -> typing.Optional[int]:
        free_nodes = self.cluster.cores.nodes_with_free_cores()
        if not free_nodes:
            return None
        node = free_nodes[self._placement_cursor % len(free_nodes)]
        self._placement_cursor += 1
        return node

    def _snapshot_loads(self) -> typing.Dict[int, float]:
        alpha = self.LOAD_SMOOTHING
        interval = self.manage_interval
        for shard_id in range(self.total_shards):
            observed = self._shard_cost_accum[shard_id] / interval
            self._shard_load[shard_id] = (
                alpha * observed + (1 - alpha) * self._shard_load[shard_id]
            )
            self._shard_cost_accum[shard_id] = 0.0
        return {i: self._shard_load[i] for i in range(self.total_shards)}

    def _manage_loop(self) -> typing.Generator:
        while True:
            yield self.env.timeout(self.manage_interval)
            if self._recovering or not self.executors:
                continue  # mid-recovery, or down for good after a stall
            shard_loads = self._snapshot_loads()
            removed: typing.List[RCExecutor] = []
            # 1. Operator scaling: create/delete executors per the policy.
            if self.target_executors_fn is not None:
                target = max(1, int(self.target_executors_fn(self)))
                while len(self.executors) - len(removed) < target:
                    node = self._pick_node_for_new_executor()
                    if node is None:
                        break
                    self._create_executor(node)
                while len(self.executors) - len(removed) > target:
                    live = [e for e in self.executors if e not in removed]
                    loads = self._executor_loads(shard_loads, live)
                    removed.append(min(live, key=loads.__getitem__))
            # 2. Load balancing over the surviving executors.  A margin
            # above θ avoids paying a global synchronization for shard-load
            # measurement noise.
            survivors = [e for e in self.executors if e not in removed]
            membership_changed = bool(removed) or len(survivors) < len(
                self.executors
            ) or any(
                not any(
                    owner is e for owner in self._assignment.values()
                )
                for e in survivors
            )
            if membership_changed or self._imbalance(shard_loads) > (
                THETA * self.REBALANCE_TRIGGER_MARGIN
            ):
                moves = self._plan_moves(shard_loads, survivors, removed)
                if moves or removed:
                    yield from self._repartition(moves, removed)

    def _executor_loads(
        self, shard_loads: typing.Dict[int, float], executors: typing.List[RCExecutor]
    ) -> typing.Dict[RCExecutor, float]:
        """Executor -> summed load of the shards it owns."""
        return {
            e: sum(shard_loads[s] for s, owner in self._assignment.items() if owner is e)
            for e in executors
        }

    def _imbalance(self, shard_loads) -> float:
        """Executor-level δ under the current assignment."""
        loads: typing.Dict[int, float] = {id(e): 0.0 for e in self.executors}
        for shard_id, owner in self._assignment.items():
            loads[id(owner)] += shard_loads.get(shard_id, 0.0)
        return ShardBalancer.imbalance(loads)

    def _plan_moves(self, shard_loads, survivors, removed):
        """Forced evacuations from removed executors plus FFD refinements."""
        assignment = dict(self._assignment)
        forced = []
        if removed:
            removed_set = set(id(e) for e in removed)
            evacuating = [
                s for s, owner in assignment.items() if id(owner) in removed_set
            ]
            placement = self._balancer.spread_plan(
                shard_loads, evacuating, survivors,
                initial_loads=self._executor_loads(shard_loads, survivors),
            )
            for shard_id, dst in placement.items():
                forced.append((shard_id, assignment[shard_id], dst))
                assignment[shard_id] = dst
        planned = self._balancer.plan(shard_loads, assignment, survivors)
        refinements = [(m.shard_id, m.src, m.dst) for m in planned]
        return forced + refinements

    # -- the global synchronization protocol --------------------------------

    def _repartition(
        self,
        moves: typing.List[typing.Tuple[int, RCExecutor, RCExecutor]],
        removed: typing.List[RCExecutor],
    ) -> typing.Generator:
        """Operator-level key repartitioning with global synchronization."""
        yield self._protocol_lock.request()
        started = self.env.now
        self.repartition_count += 1
        bus = self.env.telemetry
        span = bus.begin_span(
            "rc_sync", source=self.spec.name,
            moves=len(moves), removed=len(removed),
        )
        try:
            migrations: typing.List[typing.Tuple[int, bool, float, int]] = []
            drain_done = yield from self.barrier.synchronize(
                self._migrate(moves, migrations), span
            )
            update_done = self.env.now
            # Retire removed executors (their queues are drained by now).
            for executor in removed:
                executor.input_queue.put_nowait(STOP)
                self._drop_executor(executor)
            sync_seconds = (drain_done - started) + (update_done - drain_done) - sum(
                duration for _, _, duration, _ in migrations
            )
            sync_seconds = max(0.0, sync_seconds)
            for shard_id, inter_node, duration, migrated_bytes in migrations:
                self.reassignment_stats.record(
                    ReassignmentRecord(
                        time=started,
                        shard_id=shard_id,
                        inter_node=inter_node,
                        sync_seconds=sync_seconds,
                        migration_seconds=duration,
                        migrated_bytes=migrated_bytes,
                    )
                )
                bus.emit(
                    "reassignment", source=self.spec.name, shard=shard_id,
                    inter_node=inter_node, sync_seconds=sync_seconds,
                    migration_seconds=duration, migrated_bytes=migrated_bytes,
                    started=started,
                )
            span.finish(status="ok", migrations=len(migrations),
                        sync_seconds=sync_seconds)
        finally:
            span.finish(status="aborted")
            self._protocol_lock.release()

    def _migrate(
        self,
        moves: typing.List[typing.Tuple[int, RCExecutor, RCExecutor]],
        migrations: typing.List[typing.Tuple[int, bool, float, int]],
    ) -> typing.Generator:
        """Repartitioning's move step: migrate state between node stores."""
        for shard_id, src, dst in moves:
            if not src.alive or not dst.alive:
                # A crash intervened while this round was planned/running;
                # crash recovery re-homes the shard, don't touch it here.
                continue
            inter_node = src.node_id != dst.node_id
            migration_started = self.env.now
            migrated_bytes = 0
            if inter_node:
                # The manager orchestrates each cross-node move with a
                # control command to the source node — the coordination
                # overhead the executor-centric design avoids (its moves
                # are local to one executor's main process).
                yield self.cluster.network.transfer(
                    self.barrier.manager_node, src.node_id, CONTROL_BYTES,
                    purpose=TransferPurpose.CONTROL,
                )
                src_store = self.store_for_node(src.node_id)
                dst_store = self.store_for_node(dst.node_id)
                if shard_id not in src_store:
                    continue  # state died with a crashed node mid-round
                migrated_bytes = src_store.get(shard_id).nominal_bytes
                yield from migrate_shard(
                    self.env, self.cluster.network, src_store, dst_store,
                    shard_id, self.migration_clock,
                )
            migrations.append(
                (shard_id, inter_node, self.env.now - migration_started, migrated_bytes)
            )
            self._assignment[shard_id] = dst

    # -- crash recovery (the slow, global path — see repro.faults) ----------

    def recover_from_crash(
        self,
        dead: typing.Sequence[RCExecutor],
        stats: typing.Any,
        rebuild_rate: float,
        state_lost: bool = True,
    ) -> typing.Generator:
        """Recover from crashed executors via the operator-level protocol.

        Simulation process body.  This is the RC paradigm's cost: even a
        single dead core forces the same global synchronization as a
        repartitioning — pause every upstream, drain the whole operator,
        move/rebuild state, push new routing tables everywhere — while
        the executor-centric design recovers inside one executor.  The
        caller must already have :meth:`RCExecutor.crash`-ed the victims.
        """
        dead = [e for e in dead if not e.alive]
        if not dead:
            return
        started = self.env.now
        bus = self.env.telemetry
        span = bus.begin_span(
            "rc_recovery", source=self.spec.name, dead=len(dead),
            state_lost=state_lost,
        )
        yield self._protocol_lock.request()
        self._recovering = True
        try:
            for executor in dead:
                self._drop_executor(executor)
                if state_lost:
                    self._stores.pop(executor.node_id, None)
            dead_ids = {id(e) for e in dead}
            orphans = sorted(
                s for s, owner in self._assignment.items() if id(owner) in dead_ids
            )
            # Drain: losses surface via the dead-letter reapers, which
            # forget them from the in-flight ledger.
            drained = yield from self.barrier.synchronize(
                self._rehome(orphans, stats, rebuild_rate), span
            )
            if drained is None:
                # No capacity anywhere: the operator is down for good.
                # The barrier reopened the gate so upstreams keep flowing
                # (and the reapers keep exact loss counts) instead of
                # deadlocking.
                stats.record_event(
                    self.env.now, "rc_recovery_stalled", self.spec.name
                )
                span.finish(status="stalled")
                return
            span.finish(status="ok", orphans=len(orphans))
        finally:
            span.finish(status="aborted")
            self._recovering = False
            self._protocol_lock.release()
        stats.add_downtime(self.env.now - started)

    def _rehome(
        self, orphans: typing.List[int], stats: typing.Any, rebuild_rate: float
    ) -> typing.Generator:
        """Recovery's move step: re-home every orphaned shard onto the
        survivors, migrating surviving state and rebuilding lost state."""
        if not self.executors:
            node = self._pick_node_for_new_executor()
            if node is None:
                return STALLED
            self._create_executor(node)
        shard_loads = {i: self._shard_load[i] for i in range(self.total_shards)}
        placement = self._balancer.spread_plan(
            shard_loads, orphans, self.executors,
            initial_loads=self._executor_loads(shard_loads, self.executors),
        )
        for shard_id in sorted(placement):
            dst = placement[shard_id]
            # Migrate a surviving replica, else rebuild serially at the
            # manager — part of why RC recovery is slow.
            yield from restore_shard(
                self.env, self.cluster.network, self._stores,
                self.store_for_node(dst.node_id), shard_id, self.spec,
                stats, rebuild_rate, self.migration_clock,
            )
            self._assignment[shard_id] = dst
