"""Tests for the hybrid split/merge controller (paper §4.2 future work)."""

import typing

import pytest

from repro.cluster import Cluster, TransferPurpose
from repro.executors import (
    ElasticExecutor,
    ElasticGroup,
    HybridController,
    SubspaceRouter,
    slot_of_key,
)
from repro.executors.channels import WindowedSender
from repro.executors.config import ExecutorConfig
from repro.executors.group import submit_when_open
from repro.logic.base import OperatorLogic
from repro.sim import Environment
from repro.topology import OperatorSpec, TupleBatch


class RecordingLogic(OperatorLogic):
    def __init__(self, cost=1e-3):
        self.cost = cost
        self.seen: typing.List[typing.Tuple[int, typing.Any]] = []

    def cpu_seconds(self, batch):
        return batch.count * self.cost

    def process(self, batch, state):
        state.put(batch.key, state.get(batch.key, 0) + batch.count)
        self.seen.append((batch.key, batch.payload))
        return []


class FakeUpstream:
    def __init__(self, node_id):
        self.node_id = node_id


class World:
    """A one-operator hybrid setup driven through a group."""

    def __init__(self, num_executors=2, num_nodes=4, cores_per_node=4,
                 num_slots=16, shards=8, interval=2.0, split_threshold=2):
        self.env = Environment()
        self.cluster = Cluster(self.env, num_nodes=num_nodes,
                               cores_per_node=cores_per_node)
        self.logic = RecordingLogic()
        self.spec = OperatorSpec("op", logic=self.logic, num_executors=num_executors,
                                 shards_per_executor=shards)
        self.executors = []
        self.config = ExecutorConfig(balance_interval=0.5)
        for i in range(num_executors):
            self.executors.append(self._make_executor(i, i % num_nodes))
        self.router = SubspaceRouter(num_slots, self.executors)
        self.group = ElasticGroup("op", self.executors, router=self.router)
        self.controller = HybridController(
            self.env, self.cluster, self.group, self.router,
            executor_factory=self._factory,
            interval=interval,
            split_threshold_cores=split_threshold,
            merge_threshold_cores=0.3,
        )
        self.controller.connect_upstreams([FakeUpstream(0), FakeUpstream(1)])
        self.sender = WindowedSender(self.env, self.cluster.network, 0)

    def _make_executor(self, index, node):
        executor = ElasticExecutor(
            self.env, self.cluster, self.spec, index=index, local_node=node,
            logic=self.logic, config=self.config,
        )
        executor.connect([], sink_recorder=lambda b, n: None)
        self.cluster.cores.allocate(executor.name, node, 1)
        executor.start(initial_cores=1)
        return executor

    def _factory(self, index, node):
        return self._make_executor(index, node)

    def drive(self, batches, spacing=0.0):
        def body():
            for item in batches:
                item.admitted_at = self.env.now
                yield from submit_when_open(self.group, item, 0, self.sender)
                if spacing:
                    yield self.env.timeout(spacing)

        return self.env.process(body())


def batch(key, count=1, cost=1e-3, payload=None):
    return TupleBatch(key=key, count=count, cpu_cost=cost, size_bytes=128,
                      created_at=0.0, payload=payload)


class TestSubspaceRouter:
    def test_initial_round_robin(self):
        router = SubspaceRouter(8, ["a", "b"])
        assert router.slots_of("a") == [0, 2, 4, 6]
        assert router.slots_of("b") == [1, 3, 5, 7]

    def test_route_consistent_with_slot(self):
        router = SubspaceRouter(8, ["a", "b"])
        for key in range(100):
            slot = slot_of_key(key, 8)
            assert router.route(key) is router.executor_for_slot(slot)

    def test_reassign_slots(self):
        router = SubspaceRouter(4, ["a"])
        router.reassign_slots([1, 3], "b")
        assert router.slots_of("b") == [1, 3]
        assert set(router.executors()) == {"a", "b"}

    def test_validation(self):
        with pytest.raises(ValueError):
            SubspaceRouter(0, ["a"])
        with pytest.raises(ValueError):
            SubspaceRouter(4, [])
        with pytest.raises(ValueError):
            SubspaceRouter(1, ["a", "b"])
        router = SubspaceRouter(4, ["a"])
        with pytest.raises(ValueError):
            router.reassign_slots([9], "a")
        with pytest.raises(ValueError):
            slot_of_key(1, 0)


class TestSplit:
    def test_manual_split_moves_state_and_keys(self):
        world = World(num_executors=1, interval=1e9)
        executor = world.executors[0]
        world.drive([batch(key=k, count=3) for k in range(40)])
        world.env.run(until=1.0)

        def do_split():
            yield from world.controller.split(executor)

        world.env.process(do_split())
        world.env.run(until=3.0)
        assert world.controller.splits == 1
        assert len(world.group.executors) == 2
        sibling = world.group.executors[1]
        # Keys re-route to the new owner per the slot table.
        moved = [k for k in range(40) if world.router.route(k) is sibling]
        assert moved, "no keys moved to the sibling"
        # The moved keys' state lives in the sibling now.
        for key in moved:
            found = any(
                key in store.get(shard_id).data
                for store in sibling.stores.values()
                for shard_id in store.shard_ids
            )
            assert found, f"state of key {key} missing in sibling"
        # ... and is gone from the original.
        for key in moved:
            stale = any(
                key in store.get(shard_id).data
                for store in executor.stores.values()
                for shard_id in store.shard_ids
            )
            assert not stale, f"state of key {key} left behind"

    def test_split_preserves_tuple_counts_and_order(self):
        world = World(num_executors=1, interval=1e9)
        executor = world.executors[0]
        seqs = {k: 0 for k in range(8)}
        first = []
        for i in range(200):
            key = i % 8
            first.append(batch(key=key, payload=seqs[key]))
            seqs[key] += 1
        world.drive(first, spacing=2e-3)

        def do_split():
            yield world.env.timeout(0.15)
            yield from world.controller.split(executor)

        world.env.process(do_split())
        world.env.run(until=2.0)
        second = []
        for i in range(200):
            key = i % 8
            second.append(batch(key=key, payload=seqs[key]))
            seqs[key] += 1
        world.drive(second)
        world.env.run(until=5.0)
        assert len(world.logic.seen) == 400
        per_key: typing.Dict[int, typing.List[int]] = {}
        for key, payload in world.logic.seen:
            per_key.setdefault(key, []).append(payload)
        for key, values in per_key.items():
            assert values == sorted(values), f"key {key} out of order"

    def test_split_across_nodes_pays_migration(self):
        world = World(num_executors=1, interval=1e9)
        executor = world.executors[0]
        world.drive([batch(key=k, count=2) for k in range(64)])
        world.env.run(until=1.0)

        def do_split():
            yield from world.controller.split(executor)

        world.env.process(do_split())
        world.env.run(until=3.0)
        sibling = world.group.executors[1]
        if sibling.local_node != executor.local_node:
            migrated = world.cluster.network.bytes_by_purpose[
                TransferPurpose.STATE_MIGRATION
            ]
            assert migrated.total > 0

    def test_controller_splits_overloaded_executor_automatically(self):
        from repro.scheduler import DynamicScheduler

        world = World(num_executors=1, interval=1.5, split_threshold=3)
        # The dynamic scheduler grows the hot executor; once its demand
        # exceeds the split threshold, the controller splits it.
        scheduler = DynamicScheduler(
            world.env, world.cluster, world.executors, interval=0.5
        )
        world.controller.scheduler = scheduler
        scheduler.start()
        # Offered ~6 cores worth of load on one executor.
        world.drive(
            [batch(key=k % 32, count=6, cost=1e-3) for k in range(8000)],
            spacing=1e-3,
        )
        world.controller.start()
        world.env.run(until=12.0)
        assert world.controller.splits >= 1
        assert len(world.group.executors) >= 2


class TestMerge:
    def test_manual_merge_consolidates(self):
        world = World(num_executors=2, interval=1e9)
        keep, fold = world.executors
        world.drive([batch(key=k, count=2) for k in range(40)])
        world.env.run(until=1.0)
        before_free = world.cluster.cores.total_free

        def do_merge():
            yield from world.controller.merge(keep, fold)

        world.env.process(do_merge())
        world.env.run(until=3.0)
        assert world.controller.merges == 1
        assert world.group.executors == [keep]
        assert world.router.executors() == [keep]
        # The victim's cores returned to the pool.
        assert world.cluster.cores.total_free == before_free + 1
        # All state consolidated in the survivor.
        for key in range(40):
            found = any(
                key in store.get(shard_id).data
                for store in keep.stores.values()
                for shard_id in store.shard_ids
            )
            assert found, f"state of key {key} lost in merge"

    def test_merge_with_self_rejected(self):
        from repro.sim import ProcessCrash

        world = World(num_executors=1, interval=1e9)
        world.env.process(
            world.controller.merge(world.executors[0], world.executors[0])
        )
        with pytest.raises(ProcessCrash, match="merge an executor with itself"):
            world.env.run(until=1.0)

    def test_controller_merges_idle_executors_automatically(self):
        world = World(num_executors=3, interval=1.0)
        # Barely any load: all executors idle.
        world.drive([batch(key=k) for k in range(10)], spacing=0.1)
        world.controller.start()
        world.env.run(until=10.0)
        assert world.controller.merges >= 1
        assert len(world.group.executors) < 3

    def test_processing_continues_after_merge(self):
        world = World(num_executors=2, interval=1e9)
        keep, fold = world.executors
        world.drive([batch(key=k, payload=("a", k)) for k in range(20)])
        world.env.run(until=1.0)

        def do_merge():
            yield from world.controller.merge(keep, fold)

        world.env.process(do_merge())
        world.env.run(until=3.0)
        world.drive([batch(key=k, payload=("b", k)) for k in range(20)])
        world.env.run(until=5.0)
        assert len(world.logic.seen) == 40
