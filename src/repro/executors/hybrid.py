"""The hybrid framework: infrequent executor split/merge (paper §4.2).

"It is possible that in some extreme workloads some executors may run
excessive tasks, thus introducing extensive remote data transfer.  To
tackle this problem, we can detect and split those overloaded executors
at a coarse time granularity, e.g., every 10 minutes. ... when the total
workload decreases substantially, it is desirable to merge some idle
executors ... a hybrid framework that uses elastic executors to provide
rapid elasticity and infrequently performs operator-level key space
repartitioning for long-term optimizations."

:class:`HybridController` implements that future-work proposal: it
watches per-executor core demand, and — under a full global
synchronization (pause upstreams, drain, move per-key state, update the
operator-level slot table) — splits an executor whose demand exceeds a
node's worth of cores, or merges chronically idle executors.
"""

from __future__ import annotations

import typing

from repro.cluster.network import TransferPurpose
from repro.cluster.node import Cluster
from repro.executors.elastic import ElasticExecutor
from repro.executors.gate import OperatorBarrier
from repro.executors.group import ElasticGroup
from repro.executors.subspace import SubspaceRouter, slot_of_key
from repro.executors.task import STOP
from repro.sim import Environment
from repro.telemetry.events import NULL_SPAN
from repro.topology.keys import shard_of_key


class HybridController:
    """Coarse-grained operator-level split/merge for one elastic operator."""

    __slots__ = (
        "env", "cluster", "group", "router", "executor_factory", "interval",
        "split_threshold_cores", "merge_threshold_cores",
        "scheduler", "barrier", "_next_index",
        "_merge_streak", "splits", "merges",
    )

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        group: ElasticGroup,
        router: SubspaceRouter,
        executor_factory: typing.Callable[[int, int], ElasticExecutor],
        interval: float = 30.0,
        split_threshold_cores: typing.Optional[int] = None,
        merge_threshold_cores: float = 0.5,
        manager_node: int = 0,
        scheduler: typing.Optional[typing.Any] = None,
    ) -> None:
        """``executor_factory(index, local_node)`` must create, register
        (core accounting) and start a new executor of this operator."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.cluster = cluster
        self.group = group
        self.router = router
        self.executor_factory = executor_factory
        self.interval = interval
        self.split_threshold_cores = (
            split_threshold_cores
            if split_threshold_cores is not None
            else int(1.5 * cluster.nodes[0].num_cores)
        )
        self.merge_threshold_cores = merge_threshold_cores
        self.scheduler = scheduler
        self._next_index = len(group.executors)
        self._merge_streak = 0
        self.splits = 0
        self.merges = 0
        # Install the global-synchronization hooks.
        self.barrier = OperatorBarrier(env, cluster, manager_node)
        group.gate = self.barrier.gate
        group.in_flight = self.barrier.in_flight
        for executor in group.executors:
            executor.operator_in_flight = group.in_flight

    def connect_upstreams(self, instances: typing.Sequence[typing.Any]) -> None:
        self.barrier.upstreams = list(instances)

    def start(self) -> None:
        self.env.process(self._loop())

    # -- policy -------------------------------------------------------------

    def _demand_cores(self, executor: ElasticExecutor) -> float:
        now = self.env.now
        demand = executor.metrics.arrival_rate(now) / executor.metrics.service_rate()
        if executor.is_congested():
            # Backpressure hides demand beyond current capacity; a
            # congested executor needs at least more than it has.
            demand = max(demand, executor.num_cores * 1.5)
        return demand

    def _loop(self) -> typing.Generator:
        cooldown = 0
        while True:
            yield self.env.timeout(self.interval)
            if cooldown > 0:
                # A split/merge just happened: let the backlog drain and
                # the scheduler re-spread cores before judging again.
                cooldown -= 1
                continue
            demands = {
                executor: self._demand_cores(executor)
                for executor in self.group.executors
            }
            overloaded = [
                executor for executor, demand in demands.items()
                if demand > self.split_threshold_cores
            ]
            if overloaded:
                victim = max(overloaded, key=lambda e: demands[e])
                before = self.splits
                yield from self.split(victim)
                if self.splits > before:
                    cooldown = 2
                self._merge_streak = 0
                continue
            idle = sorted(
                (e for e, d in demands.items() if d < self.merge_threshold_cores),
                key=lambda e: demands[e],
            )
            if len(idle) >= 2 and len(self.group.executors) > 1:
                self._merge_streak += 1
                # Merge only after sustained idleness (coarse, cautious).
                if self._merge_streak >= 2:
                    yield from self.merge(idle[0], idle[1])
                    self._merge_streak = 0
                    cooldown = 2
            else:
                self._merge_streak = 0

    # -- split ----------------------------------------------------------------

    def split(self, executor: ElasticExecutor) -> typing.Generator:
        """Split ``executor``'s key subspace in half onto a new executor."""
        slots = self.router.slots_of(executor)
        if len(slots) < 2:
            return  # cannot split a single-slot subspace
        free_nodes = self.cluster.cores.nodes_with_free_cores()
        if free_nodes:
            target_node = max(
                free_nodes, key=lambda n: self.cluster.cores.free(n)
            )
        else:
            # Cluster fully allocated (typically to the overloaded
            # executor itself): reclaim one of its cores for the sibling.
            if executor.num_cores <= 1:
                return
            holdings = executor.cores_by_node()
            target_node = max(holdings, key=lambda n: holdings[n])
            yield from executor.remove_core(target_node)
            self.cluster.cores.release(executor.name, target_node, 1)
        # Reserve the sibling's first core now — the scheduler must not
        # grab it while the operator drains.
        reservation = f"__hybrid_split_{self._next_index}"
        self.cluster.cores.allocate(reservation, target_node, 1)
        # The split is a full RC-style global synchronization.
        yield from self.barrier.synchronize(
            self._split_move(executor, slots, target_node, reservation),
            NULL_SPAN,
        )

    def _split_move(
        self,
        executor: ElasticExecutor,
        slots: typing.List[int],
        target_node: int,
        reservation: str,
    ) -> typing.Generator:
        # Lock out the executor's own balancer during state surgery.
        yield executor._control.request()
        try:
            # Hand the reserved core to the factory (same event: atomic).
            self.cluster.cores.release(reservation, target_node, 1)
            sibling = self.executor_factory(self._next_index, target_node)
            self._next_index += 1
            sibling.operator_in_flight = self.group.in_flight
            moved_slots = slots[len(slots) // 2:]
            yield from self._move_subspace(executor, sibling, moved_slots)
            self.router.reassign_slots(moved_slots, sibling)
            self.group.executors.append(sibling)
            if self.scheduler is not None:
                self.scheduler.executors.append(sibling)
            self.splits += 1
        finally:
            executor._control.release()

    # -- merge ----------------------------------------------------------------

    def merge(
        self, survivor: ElasticExecutor, victim: ElasticExecutor
    ) -> typing.Generator:
        """Fold ``victim``'s key subspace into ``survivor`` and retire it."""
        if survivor is victim:
            raise ValueError("cannot merge an executor with itself")
        yield from self.barrier.synchronize(
            self._merge_move(survivor, victim), NULL_SPAN
        )

    def _merge_move(
        self, survivor: ElasticExecutor, victim: ElasticExecutor
    ) -> typing.Generator:
        yield survivor._control.request()
        yield victim._control.request()
        try:
            moved_slots = self.router.slots_of(victim)
            yield from self._move_subspace(victim, survivor, moved_slots)
            self.router.reassign_slots(moved_slots, survivor)
            self.group.executors.remove(victim)
            if self.scheduler is not None:
                self.scheduler.remove_executor(victim)
            yield from self._retire(victim)
            self.merges += 1
        finally:
            victim._control.release()
            survivor._control.release()

    def _retire(self, executor: ElasticExecutor) -> typing.Generator:
        """Stop all tasks and release the executor's cores."""
        waits = []
        for task in list(executor.tasks.values()):
            task.queue.put_nowait(STOP)
            waits.append(task.process)
        if waits:
            yield self.env.all_of(waits)
        for node, count in executor.cores_by_node().items():
            self.cluster.cores.release(executor.name, node, count)
        executor.tasks.clear()

    # -- state surgery ----------------------------------------------------------

    def _move_subspace(
        self,
        src: ElasticExecutor,
        dst: ElasticExecutor,
        moved_slots: typing.Sequence[int],
    ) -> typing.Generator:
        """Extract the per-key state of ``moved_slots`` from ``src``.

        The operator is drained, so no task touches state concurrently.
        Keys re-hash into ``dst``'s own shards; nominal sizes move
        proportionally; the bytes cross the network when the executors'
        local nodes differ.
        """
        moved = set(moved_slots)
        slot_count = len(self.router.slots_of(src)) or 1
        fraction = len(moved) / slot_count
        transferred = 0
        for store in src.stores.values():
            for shard_id in store.shard_ids:
                shard = store.get(shard_id)
                moving_keys = [
                    key for key in shard.data
                    if slot_of_key(key, self.router.num_slots) in moved
                ]
                moved_bytes = int(shard.nominal_bytes * fraction)
                shard.resize(shard.nominal_bytes - moved_bytes)
                transferred += moved_bytes
                dst_store = dst.stores[dst.local_node]
                for key in moving_keys:
                    dst_shard = dst_store.get(shard_of_key(key, dst.num_shards))
                    dst_shard.data[key] = shard.data.pop(key)
        # Grow the destination shards' nominal footprint by what arrived.
        if transferred and len(dst.stores[dst.local_node]) > 0:
            per_shard = transferred // len(dst.stores[dst.local_node])
            for shard_id in dst.stores[dst.local_node].shard_ids:
                shard = dst.stores[dst.local_node].get(shard_id)
                shard.resize(shard.nominal_bytes + per_shard)
        if transferred and src.local_node != dst.local_node:
            yield self.cluster.network.transfer(
                src.local_node, dst.local_node, transferred,
                purpose=TransferPurpose.STATE_MIGRATION,
            )
        elif transferred:
            yield self.env.timeout(
                src.migration_clock.serialization_delay(transferred)
            )

