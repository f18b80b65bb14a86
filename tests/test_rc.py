"""Integration tests for the resource-centric baseline."""

import typing

import pytest

from repro.cluster import Cluster, TransferPurpose
from repro.executors import RCGroup, RCOperatorManager
from repro.executors.channels import WindowedSender
from repro.executors.config import ExecutorConfig
from repro.executors.group import submit_when_open
from repro.logic.base import OperatorLogic
from repro.sim import Environment
from repro.topology import OperatorSpec, TupleBatch


class RecordingLogic(OperatorLogic):
    def __init__(self, cost_per_tuple: float = 1e-3) -> None:
        self.cost_per_tuple = cost_per_tuple
        self.seen: typing.List[typing.Tuple[int, typing.Any]] = []

    def cpu_seconds(self, batch: TupleBatch) -> float:
        return batch.count * self.cost_per_tuple

    def process(self, batch, state):
        self.seen.append((batch.key, batch.payload))
        state.put(batch.key, state.get(batch.key, 0) + batch.count)
        return []


class FakeUpstream:
    """Stands in for an upstream executor instance in control rounds."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id


def batch(key, count=1, cost=1e-3, size=128, created=0.0, payload=None):
    return TupleBatch(
        key=key, count=count, cpu_cost=cost, size_bytes=size,
        created_at=created, payload=payload,
    )


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster(env):
    return Cluster(env, num_nodes=4, cores_per_node=4)


def make_rc(env, cluster, logic, num_executors=2, shards_per_executor=8,
            upstreams=1, manage_interval=0.5, state_bytes=32 * 1024):
    spec = OperatorSpec(
        "op", logic=logic, num_executors=num_executors,
        shards_per_executor=shards_per_executor, shard_state_bytes=state_bytes,
    )
    manager = RCOperatorManager(
        env, cluster, spec, config=ExecutorConfig(),
        manage_interval=manage_interval,
    )
    manager.connect([], sink_recorder=lambda b, now: None)
    manager.bootstrap(num_executors, nodes=list(range(cluster.num_nodes)))
    manager.connect_upstreams([FakeUpstream(i % cluster.num_nodes) for i in range(upstreams)])
    manager.start()
    group = RCGroup("op", manager)
    return manager, group


def drive(env, cluster, group, batches, src_node=0, spacing=0.0):
    sender = WindowedSender(env, cluster.network, src_node)

    def body():
        for item in batches:
            yield from submit_when_open(group, item, src_node, sender)
            if spacing > 0:
                yield env.timeout(spacing)

    return env.process(body())


class TestRCBasics:
    def test_processes_batches(self, env, cluster):
        logic = RecordingLogic()
        manager, group = make_rc(env, cluster, logic)
        drive(env, cluster, group, [batch(key=k) for k in range(20)])
        env.run(until=2.0)
        assert len(logic.seen) == 20
        assert manager.in_flight.count == 0

    def test_initial_shards_spread_round_robin(self, env, cluster):
        manager, _ = make_rc(env, cluster, RecordingLogic(), num_executors=2,
                             shards_per_executor=8)
        counts = {}
        for shard, executor in manager.assignment_snapshot().items():
            counts[executor.name] = counts.get(executor.name, 0) + 1
        assert set(counts.values()) == {8}  # 16 shards over 2 executors

    def test_state_persists_across_batches(self, env, cluster):
        logic = RecordingLogic()
        manager, group = make_rc(env, cluster, logic)
        drive(env, cluster, group, [batch(key=5, count=3), batch(key=5, count=4)])
        env.run(until=2.0)
        from repro.topology.keys import shard_of_key

        shard = shard_of_key(5, manager.total_shards)
        owner = manager.executor_for_shard(shard)
        assert manager.store_for_node(owner.node_id).get(shard).data[5] == 7


class TestRepartitioning:
    def skewed_batches(self, n, hot_key=0):
        result = []
        for i in range(n):
            key = hot_key if i % 4 != 3 else i % 32
            result.append(batch(key=key, cost=2e-3, payload=i))
        return result

    def test_repartition_triggers_under_skew(self, env, cluster):
        logic = RecordingLogic(cost_per_tuple=2e-3)
        manager, group = make_rc(env, cluster, logic, num_executors=2,
                                 shards_per_executor=16, manage_interval=0.3)
        drive(env, cluster, group, self.skewed_batches(800), spacing=1e-3)
        env.run(until=5.0)
        assert manager.repartition_count > 0
        assert len(manager.reassignment_stats.records) > 0

    def test_repartition_preserves_order_and_tuples(self, env, cluster):
        logic = RecordingLogic(cost_per_tuple=2e-3)
        manager, group = make_rc(env, cluster, logic, num_executors=2,
                                 shards_per_executor=16, manage_interval=0.3)
        n = 600
        drive(env, cluster, group, self.skewed_batches(n), spacing=1e-3)
        env.run(until=10.0)
        assert len(logic.seen) == n
        per_key: typing.Dict[int, typing.List[int]] = {}
        for key, payload in logic.seen:
            per_key.setdefault(key, []).append(payload)
        for key, seqs in per_key.items():
            assert seqs == sorted(seqs), f"key {key} out of order"

    def test_sync_time_grows_with_upstream_count(self):
        """Isolated protocol cost: two control rounds over N upstreams."""

        def measure(upstreams):
            local_env = Environment()
            local_cluster = Cluster(local_env, num_nodes=4, cores_per_node=8)
            manager, _ = make_rc(
                local_env, local_cluster, RecordingLogic(), num_executors=2,
                shards_per_executor=16, upstreams=upstreams, manage_interval=1e9,
            )
            done = {}

            def body():
                start = local_env.now
                yield from manager._repartition(moves=[], removed=[])
                done["duration"] = local_env.now - start

            local_env.process(body())
            local_env.run(until=60.0)
            return done["duration"]

        few = measure(1)
        many = measure(64)
        assert many > few * 10  # grows roughly linearly with upstream count

    def test_inter_node_moves_pay_migration(self, env, cluster):
        logic = RecordingLogic(cost_per_tuple=2e-3)
        manager, group = make_rc(env, cluster, logic, num_executors=2,
                                 shards_per_executor=16, manage_interval=0.3)
        drive(env, cluster, group, self.skewed_batches(800), spacing=1e-3)
        env.run(until=5.0)
        inter = [r for r in manager.reassignment_stats.records if r.inter_node]
        if inter:  # executors live on different nodes -> moves cross nodes
            assert all(r.migrated_bytes > 0 for r in inter)
            assert cluster.network.bytes_by_purpose[
                TransferPurpose.STATE_MIGRATION
            ].total > 0

    def test_gate_blocks_submissions_during_repartition(self, env, cluster):
        logic = RecordingLogic()
        manager, group = make_rc(env, cluster, logic, num_executors=2)
        manager.gate.close()
        drive(env, cluster, group, [batch(key=1)])
        env.run(until=0.5)
        assert logic.seen == []  # blocked at the gate
        manager.gate.open()
        env.run(until=1.0)
        assert len(logic.seen) == 1


class TestRCScaling:
    def test_scales_out_with_policy(self, env, cluster):
        logic = RecordingLogic(cost_per_tuple=5e-3)
        manager, group = make_rc(env, cluster, logic, num_executors=1,
                                 shards_per_executor=32, manage_interval=0.4)
        manager.target_executors_fn = lambda m: 4
        drive(env, cluster, group,
              [batch(key=k % 64, cost=5e-3) for k in range(1500)], spacing=5e-4)
        env.run(until=6.0)
        assert len(manager.executors) == 4
        # Shards actually spread over the new executors.
        owners = {ex.name for ex in manager.assignment_snapshot().values()}
        assert len(owners) >= 3

    def test_scales_in_with_policy(self, env, cluster):
        logic = RecordingLogic()
        manager, group = make_rc(env, cluster, logic, num_executors=4,
                                 shards_per_executor=8, manage_interval=0.4)
        manager.target_executors_fn = lambda m: 2
        drive(env, cluster, group, [batch(key=k % 32) for k in range(200)], spacing=2e-3)
        env.run(until=5.0)
        assert len(manager.executors) == 2
        owners = {id(ex) for ex in manager.assignment_snapshot().values()}
        live = {id(ex) for ex in manager.executors}
        assert owners <= live  # no shard points at a retired executor

    def test_core_accounting_follows_scaling(self, env, cluster):
        logic = RecordingLogic()
        manager, group = make_rc(env, cluster, logic, num_executors=2,
                                 shards_per_executor=8, manage_interval=0.4)
        before = cluster.cores.total_free
        manager.target_executors_fn = lambda m: 4
        drive(env, cluster, group, [batch(key=k % 32) for k in range(200)], spacing=2e-3)
        env.run(until=3.0)
        assert cluster.cores.total_free == before - 2


class TestInFlightCounter:
    def test_underflow_rejected(self, env):
        from repro.executors.rc import InFlightCounter

        counter = InFlightCounter(env)
        with pytest.raises(RuntimeError):
            counter.decrement()

    def test_wait_zero_immediate_when_idle(self, env):
        from repro.executors.rc import InFlightCounter

        counter = InFlightCounter(env)
        assert counter.wait_zero().triggered

    def test_wait_zero_fires_on_drain(self, env):
        from repro.executors.rc import InFlightCounter

        counter = InFlightCounter(env)
        counter.increment()
        counter.increment()
        fired = []

        def waiter():
            yield counter.wait_zero()
            fired.append(env.now)

        def drainer():
            yield env.timeout(1.0)
            counter.decrement()
            yield env.timeout(1.0)
            counter.decrement()

        env.process(waiter())
        env.process(drainer())
        env.run()
        assert fired == [2.0]
