"""Integration tests for the DynamicScheduler daemon."""

import pytest

from repro.cluster import Cluster
from repro.executors import ElasticExecutor
from repro.executors.config import ExecutorConfig
from repro.logic.base import OperatorLogic
from repro.scheduler import DynamicScheduler, NaiveECStrategy
from repro.sim import Environment
from repro.topology import OperatorSpec, TupleBatch


class CostLogic(OperatorLogic):
    def __init__(self, cost=1e-3):
        self.cost = cost

    def cpu_seconds(self, batch):
        return batch.count * self.cost

    def process(self, batch, state):
        return []


def make_world(num_executors=2, num_nodes=4, cores_per_node=4):
    env = Environment()
    cluster = Cluster(env, num_nodes=num_nodes, cores_per_node=cores_per_node)
    executors = []
    for i in range(num_executors):
        spec = OperatorSpec(
            "op", logic=CostLogic(), num_executors=num_executors,
            shards_per_executor=16,
        )
        executor = ElasticExecutor(
            env, cluster, spec, index=i, local_node=i % num_nodes,
            config=ExecutorConfig(balance_interval=0.5),
        )
        executor.connect([], sink_recorder=lambda b, n: None)
        cluster.cores.allocate(executor.name, executor.local_node, 1)
        executor.start(initial_cores=1)
        executors.append(executor)
    return env, cluster, executors


def feed(env, executor, rate, cost=1e-3, batch_size=10, duration=None):
    def body():
        tick = 0.05
        per_tick = rate * tick
        index = 0
        while duration is None or index * tick < duration:
            start = index * tick
            if start > env.now:
                yield env.timeout(start - env.now)
            n = int(per_tick / batch_size)
            for j in range(n):
                batch = TupleBatch(
                    key=(index * n + j) % 100, count=batch_size, cpu_cost=cost,
                    size_bytes=128, created_at=env.now,
                )
                batch.admitted_at = env.now
                yield executor.input_queue.put(batch)
            index += 1

    return env.process(body())


class TestDynamicScheduler:
    def test_rounds_recorded(self):
        env, cluster, executors = make_world()
        scheduler = DynamicScheduler(env, cluster, executors, interval=1.0)
        scheduler.start()
        env.run(until=5.5)
        assert len(scheduler.report.rounds) == 5
        assert all(r.wall_seconds >= 0 for r in scheduler.report.rounds)

    def test_double_start_rejected(self):
        env, cluster, executors = make_world()
        scheduler = DynamicScheduler(env, cluster, executors)
        scheduler.start()
        with pytest.raises(RuntimeError):
            scheduler.start()

    def test_grows_overloaded_executor(self):
        env, cluster, executors = make_world(num_executors=1)
        # One executor, one core, offered 3x its capacity.
        feed(env, executors[0], rate=3000, cost=1e-3)
        scheduler = DynamicScheduler(env, cluster, executors, interval=0.5)
        scheduler.start()
        env.run(until=10.0)
        assert executors[0].num_cores >= 3

    def test_idle_executor_shrinks_to_minimum(self):
        env, cluster, executors = make_world(num_executors=1)
        executor = executors[0]

        def pregrow():
            for _ in range(3):
                cluster.cores.allocate(executor.name, executor.local_node, 1)
                yield from executor.add_core(executor.local_node)

        env.process(pregrow())
        env.run(until=1.0)
        assert executor.num_cores == 4
        scheduler = DynamicScheduler(env, cluster, executors, interval=0.5)
        scheduler.start()
        env.run(until=10.0)  # no load at all: shrink (after patience)
        assert executor.num_cores == 1
        assert cluster.cores.held_total(executor.name) == 1

    def test_shrink_patience_damps_flapping(self):
        env, cluster, executors = make_world(num_executors=1)
        executor = executors[0]

        def pregrow():
            cluster.cores.allocate(executor.name, executor.local_node, 1)
            yield from executor.add_core(executor.local_node)

        env.process(pregrow())
        env.run(until=0.5)
        scheduler = DynamicScheduler(env, cluster, executors, interval=1.0)
        scheduler.shrink_patience = 100  # effectively never shrink
        scheduler.start()
        env.run(until=8.0)
        assert executor.num_cores == 2  # still holding both

    def test_respects_reserved_nodes(self):
        env, cluster, executors = make_world(
            num_executors=1, num_nodes=2, cores_per_node=2
        )
        # Reserve all of node 1: the scheduler may only use node 0.
        cluster.cores.allocate("__sources__", 1, 2)
        feed(env, executors[0], rate=5000, cost=1e-3)
        scheduler = DynamicScheduler(
            env, cluster, executors, interval=0.5, reserved_by_node={1: 2}
        )
        scheduler.start()
        env.run(until=6.0)
        assert set(executors[0].cores_by_node()) == {0}

    def test_naive_mode_places_round_robin(self):
        env, cluster, executors = make_world(num_executors=2)
        for executor in executors:
            feed(env, executor, rate=2500, cost=1e-3)
        scheduler = DynamicScheduler(
            env, cluster, executors, interval=0.5, strategy=NaiveECStrategy()
        )
        scheduler.start()
        env.run(until=8.0)
        # Demands met despite the oblivious placement.
        assert all(ex.num_cores >= 2 for ex in executors)
        # Core accounting still consistent.
        for executor in executors:
            assert cluster.cores.held_total(executor.name) == executor.num_cores

    def test_reschedule_is_noop_when_stable(self):
        env, cluster, executors = make_world()
        scheduler = DynamicScheduler(env, cluster, executors, interval=1.0)
        scheduler.start()
        env.run(until=6.0)
        later_rounds = scheduler.report.rounds[2:]
        assert all(
            r.cores_added == 0 and r.cores_removed == 0 for r in later_rounds
        )

    def test_validation(self):
        env, cluster, executors = make_world()
        with pytest.raises(ValueError):
            DynamicScheduler(env, cluster, executors, interval=0.0)
        with pytest.raises(ValueError):
            DynamicScheduler(env, cluster, executors, demand_headroom=0.5)
