"""Unit tests for operator delivery groups and source instances."""

import pytest

from repro.cluster import Cluster
from repro.executors import (
    ElasticExecutor,
    ElasticGroup,
    OperatorGate,
    RCOperatorManager,
    SubspaceRouter,
)
from repro.executors.channels import WindowedSender
from repro.executors.group import SourceInstance, submit_when_open
from repro.executors.gate import InFlightCounter
from repro.faults.recovery import DeadLetterReaper
from repro.logic.base import SyntheticLogic
from repro.metrics.recovery import RecoveryStats
from repro.sim import Environment
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


class TestElasticGroup:
    def test_static_hash_routing(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        executors = make_executors(env, cluster)
        group = ElasticGroup("op", executors)
        for key in range(50):
            expected = executors[executor_of_key(key, 2)]
            assert group.route(key) is expected

    def test_router_overrides_hash(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        executors = make_executors(env, cluster)
        router = SubspaceRouter(8, executors)
        group = ElasticGroup("op", executors, router=router)
        router.reassign_slots(range(8), executors[1])  # everything to [1]
        for key in range(50):
            assert group.route(key) is executors[1]

    def test_gate_blocks_submission(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        executors = make_executors(env, cluster)
        group = ElasticGroup("op", executors)
        group.gate = OperatorGate(env)
        group.gate.close()
        sender = WindowedSender(env, cluster.network, 0)
        delivered = []

        def producer():
            yield from submit_when_open(group, batch(key=1), 0, sender)
            delivered.append(env.now)

        def opener():
            yield env.timeout(2.0)
            group.gate.open()

        env.process(producer())
        env.process(opener())
        env.run(until=5.0)
        assert delivered and delivered[0] >= 2.0

    def test_in_flight_accounting(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        executors = make_executors(env, cluster)
        group = ElasticGroup("op", executors)
        group.in_flight = InFlightCounter(env)
        for executor in executors:
            executor.operator_in_flight = group.in_flight
        sender = WindowedSender(env, cluster.network, 0)

        def producer():
            for key in range(10):
                yield from submit_when_open(group, batch(key=key), 0, sender)

        env.process(producer())
        env.run(until=2.0)
        assert group.in_flight.count == 0  # everything processed

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ElasticGroup("op", [])


class TestEmitterLoop:
    def test_crash_drops_the_batch_waiting_on_a_closed_gate(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2)
        downstream = make_executors(env, cluster)
        group = ElasticGroup("down", downstream)
        group.gate = OperatorGate(env)
        group.gate.close()
        spec = OperatorSpec("up", logic=SyntheticLogic(), num_executors=1,
                            shards_per_executor=4)
        manager = RCOperatorManager(env, cluster, spec)
        manager.connect([group])
        manager.bootstrap(1, nodes=[0])
        (upstream,) = manager.executors
        upstream._emitter_queue.put_nowait(batch(key=1))
        env.run(until=1.0)  # the emitter now holds the batch at the gate
        upstream.crash(DeadLetterReaper(env, RecoveryStats()))
        group.gate.open()
        env.run(until=2.0)
        # A dead emitter submits nothing, gate wait included.
        assert all(ex.metrics.processed_batches.total == 0 for ex in downstream)


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
