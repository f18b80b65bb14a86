"""Unit tests for operator delivery groups and source instances."""

import pytest

from repro.cluster import Cluster
from repro.executors import ElasticExecutor, ElasticGroup, RCGroup, RCOperatorManager
from repro.executors.channels import WindowedSender
from repro.executors.group import SourceInstance, submit_when_open
from repro.faults.recovery import DeadLetterReaper
from repro.logic.base import SyntheticLogic
from repro.metrics.recovery import RecoveryStats
from repro.sim import Environment
from repro.sim.events import spare_event
from repro.topology import OperatorSpec, TupleBatch
from repro.topology.keys import executor_of_key


def batch(key, count=1):
    return TupleBatch(key=key, count=count, cpu_cost=1e-4, size_bytes=64,
                      created_at=0.0)


@pytest.fixture
def env():
    return Environment()


def make_executors(env, cluster, n=2):
    executors = []
    for i in range(n):
        spec = OperatorSpec("op", logic=SyntheticLogic(selectivity=0.0),
                            num_executors=n, shards_per_executor=4)
        executor = ElasticExecutor(env, cluster, spec, index=i, local_node=i)
        executor.connect([], sink_recorder=lambda b, now: None)
        executor.start(initial_cores=1)
        executors.append(executor)
    return executors


def make_rc_group(env, cluster, name="op", n=2):
    """An RC operator of ``n`` executors behind its gated group."""
    spec = OperatorSpec(name, logic=SyntheticLogic(selectivity=0.0),
                        num_executors=n, shards_per_executor=4)
    manager = RCOperatorManager(env, cluster, spec)
    manager.connect([], sink_recorder=lambda b, now: None)
    manager.bootstrap(n, nodes=list(range(n)))
    return manager, RCGroup(name, manager)


class TestElasticGroup:
    def test_static_hash_routing(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        executors = make_executors(env, cluster)
        group = ElasticGroup("op", executors)
        sender = WindowedSender(env, cluster.network, 0)
        for key in range(50):
            event = group.submit_event(batch(key), 0, sender, spare_event(env), None)
            assert event is not None  # an elastic group has no gate
        env.run(until=1.0)
        for index, executor in enumerate(executors):
            landed = {
                key
                for store in executor.stores.values()
                for shard_id in store.shard_ids
                for key in store.get(shard_id).data
            }
            assert landed == {k for k in range(50) if executor_of_key(k, 2) == index}

    def test_gate_blocks_submission(self, env):
        # Only an RC group has a gate: submit_when_open waits it open.
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        manager, group = make_rc_group(env, cluster)
        manager.gate.close()
        sender = WindowedSender(env, cluster.network, 0)
        delivered = []

        def producer():
            yield from submit_when_open(group, batch(key=1), 0, sender)
            delivered.append(env.now)

        def opener():
            yield env.timeout(2.0)
            manager.gate.open()

        env.process(producer())
        env.process(opener())
        env.run(until=5.0)
        assert delivered and delivered[0] >= 2.0

    def test_in_flight_accounting(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        executors = make_executors(env, cluster)
        group = ElasticGroup("op", executors)
        sender = WindowedSender(env, cluster.network, 0)

        def producer():
            for key in range(10):
                yield from submit_when_open(group, batch(key=key), 0, sender)

        env.process(producer())
        env.run(until=2.0)
        # Every submitted batch is processed; no operator ledger is kept.
        assert sum(ex.metrics.processed_batches.total for ex in executors) == 10
        assert all(ex.operator_in_flight is None for ex in executors)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ElasticGroup("op", [])


class TestEmitterLoop:
    def test_crash_drops_the_batch_waiting_on_a_closed_gate(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        down_manager, group = make_rc_group(env, cluster, name="down")
        down_manager.gate.close()
        spec = OperatorSpec("up", logic=SyntheticLogic(), num_executors=1,
                            shards_per_executor=4)
        manager = RCOperatorManager(env, cluster, spec)
        manager.connect([group])
        manager.bootstrap(1, nodes=[0])
        (upstream,) = manager.executors
        upstream._emitter_queue.put_nowait(batch(key=1))
        env.run(until=1.0)  # the emitter now holds the batch at the gate
        upstream.crash(DeadLetterReaper(env, RecoveryStats()))
        down_manager.gate.open()
        env.run(until=2.0)
        # A dead emitter submits nothing, gate wait included.
        assert all(
            ex.metrics.processed_batches.total == 0
            for ex in down_manager.executors
        )


class TestSourceInstance:
    def test_emits_schedule_and_counts(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        executors = make_executors(env, cluster, n=1)
        group = ElasticGroup("op", executors)
        source = SourceInstance(env, cluster.network, "src", 0, node_id=0)
        source.connect([group])

        def schedule():
            for i in range(5):
                yield i * 0.1, batch(key=i, count=3)

        source.start(schedule())
        env.run(until=2.0)
        assert source.emitted_tuples == 15
        assert executors[0].metrics.processed_tuples.total == 15

    def test_admitted_at_stamped(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        executors = make_executors(env, cluster, n=1)
        group = ElasticGroup("op", executors)
        source = SourceInstance(env, cluster.network, "src", 0, node_id=0)
        source.connect([group])
        item = batch(key=1)

        source.start(iter([(0.5, item)]))
        env.run(until=1.0)
        assert item.admitted_at == pytest.approx(0.5)

    def test_trace_sampling(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        executors = make_executors(env, cluster, n=1)
        group = ElasticGroup("op", executors)
        source = SourceInstance(env, cluster.network, "src", 0, node_id=0,
                                trace_every=2)
        source.connect([group])
        items = [batch(key=i) for i in range(4)]
        source.start(iter([(i * 0.1, b) for i, b in enumerate(items)]))
        env.run(until=2.0)
        traced = [b for b in items if b.trace is not None]
        assert len(traced) == 2  # every 2nd batch
        for item in traced:
            assert "done" in item.trace
