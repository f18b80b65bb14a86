"""Tests for the external (RAMCloud-style) state store alternative."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cluster import Cluster, TransferPurpose
from repro.executors import ElasticExecutor
from repro.executors.config import ExecutorConfig
from repro.logic.base import OperatorLogic
from repro.sim import Environment
from repro.state import ExternalStateService, ShardState
from repro.topology import OperatorSpec, TupleBatch

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


class CountingLogic(OperatorLogic):
    def __init__(self, cost=1e-3):
        self.cost = cost
        self.seen = []

    def cpu_seconds(self, batch):
        return batch.count * self.cost

    def process(self, batch, state):
        state.put(batch.key, state.get(batch.key, 0) + batch.count)
        self.seen.append(batch.key)
        return []


@pytest.fixture
def env():
    return Environment()


class TestExternalStateService:
    def test_register_and_access(self, env):
        cluster = Cluster(env, num_nodes=3)
        service = ExternalStateService(env, cluster.network, storage_nodes=[2])
        shard = ShardState(0)
        service.register_shard("ex", shard)
        got = {}

        def body():
            result = yield from service.access("ex", 0, from_node=0)
            got["shard"] = result
            got["time"] = env.now

        env.process(body())
        env.run()
        assert got["shard"] is shard
        # Paid two transfers + two serializations.
        assert got["time"] > 2 * cluster.network.base_latency
        assert service.accesses == 1

    def test_double_register_rejected(self, env):
        cluster = Cluster(env, num_nodes=2)
        service = ExternalStateService(env, cluster.network, storage_nodes=[1])
        service.register_shard("ex", ShardState(0))
        with pytest.raises(ValueError):
            service.register_shard("ex", ShardState(0))

    def test_unregistered_access_rejected(self, env):
        from repro.sim import ProcessCrash

        cluster = Cluster(env, num_nodes=2)
        service = ExternalStateService(env, cluster.network, storage_nodes=[1])

        def body():
            yield from service.access("ghost", 0, from_node=0)

        env.process(body())
        with pytest.raises(ProcessCrash, match="not registered"):
            env.run()

    def test_placement_ignores_hash_seed(self):
        # Shard -> storage node must not follow the per-process str hash.
        script = (
            "from repro.cluster import Cluster\n"
            "from repro.sim import Environment\n"
            "from repro.state import ExternalStateService\n"
            "env = Environment()\n"
            "service = ExternalStateService(\n"
            "    env, Cluster(env, num_nodes=4).network, storage_nodes=[1, 2, 3]\n"
            ")\n"
            "print([service.storage_node_for(owner, shard)\n"
            "       for owner in ('op[0]', 'op[1]', 'join[7]')\n"
            "       for shard in range(32)])\n"
        )
        maps = []
        for seed in ("1", "2"):
            env_vars = dict(os.environ, PYTHONHASHSEED=seed)
            env_vars["PYTHONPATH"] = os.pathsep.join(
                [SRC, env_vars.get("PYTHONPATH", "")]
            )
            out = subprocess.run(
                [sys.executable, "-c", script], env=env_vars,
                capture_output=True, text=True, check=True,
            ).stdout
            maps.append(out)
        assert maps[0] == maps[1]
        assert {"1", "2", "3"} <= set(maps[0])

    def test_validation(self, env):
        cluster = Cluster(env, num_nodes=2)
        with pytest.raises(ValueError):
            ExternalStateService(env, cluster.network, storage_nodes=[])
        with pytest.raises(ValueError):
            ExternalStateService(
                env, cluster.network, storage_nodes=[1], access_bytes=-1
            )


class TestExecutorWithExternalState:
    def make_executor(self, env, cluster, service, logic):
        spec = OperatorSpec(
            "op", logic=logic, num_executors=1, shards_per_executor=8
        )
        executor = ElasticExecutor(
            env, cluster, spec, index=0, local_node=0,
            config=ExecutorConfig(balance_interval=0.3),
            external_state=service,
        )
        executor.connect([], sink_recorder=lambda b, n: None)
        executor.start(initial_cores=1)
        return executor

    def test_state_persists_in_service(self, env):
        cluster = Cluster(env, num_nodes=4)
        service = ExternalStateService(env, cluster.network, storage_nodes=[3])
        logic = CountingLogic()
        executor = self.make_executor(env, cluster, service, logic)

        def feed():
            for i in range(20):
                batch = TupleBatch(key=5, count=2, cpu_cost=1e-3,
                                   size_bytes=128, created_at=env.now)
                yield executor.input_queue.put(batch)

        env.process(feed())
        env.run(until=3.0)
        assert len(logic.seen) == 20
        # Every batch paid a state access.
        assert service.accesses == 20
        # State accumulated in the external shard, not in local stores.
        assert all(len(store) == 0 for store in executor.stores.values())
        assert executor.state_bytes() == 0

    def test_one_access_per_processed_batch(self, env):
        # Local and remote tasks alike pay one round trip per batch, and
        # every batch's count lands in its key's external state.
        cluster = Cluster(env, num_nodes=4)
        service = ExternalStateService(env, cluster.network, storage_nodes=[3])
        logic = CountingLogic()
        executor = self.make_executor(env, cluster, service, logic)
        sent = {}

        def feed():
            for i in range(120):
                key = (i * 7) % 23
                sent[key] = sent.get(key, 0) + 3
                yield executor.input_queue.put(
                    TupleBatch(key=key, count=3, cpu_cost=1e-3,
                               size_bytes=64, created_at=env.now)
                )

        env.process(feed())
        env.process(executor.add_core(1))
        env.run(until=5.0)
        processed = executor.metrics.processed_batches.total
        assert processed == 120
        assert service.accesses == processed
        assert executor.cores_by_node() == {0: 1, 1: 1}
        totals = {}
        for (_owner, _shard_id), shard in service._shards.items():
            for key, value in shard.data.items():
                totals[key] = totals.get(key, 0) + value
        assert totals == sent

    def test_kill_during_access_dead_letters_the_batch(self, env):
        from repro.faults.recovery import DeadLetterReaper
        from repro.metrics.recovery import RecoveryStats

        # A 50 ms network latency makes the round trip long enough to
        # kill the task while the batch waits on the store.
        cluster = Cluster(env, num_nodes=4, network_latency=0.05)
        service = ExternalStateService(env, cluster.network, storage_nodes=[3])
        logic = CountingLogic()
        executor = self.make_executor(env, cluster, service, logic)
        batch = TupleBatch(key=5, count=4, cpu_cost=1e-3, size_bytes=64,
                           created_at=0.0)
        executor.input_queue.put_nowait(batch)
        env.run(until=0.03)
        (task,) = executor.tasks.values()
        assert task.current_item is batch
        assert service.accesses == 1  # the request is on the wire
        stats = RecoveryStats()
        lost = []
        reaper = DeadLetterReaper(env, stats, on_lost=lost.append)
        executor.crash_tasks([task], reaper)
        env.run(until=1.0)
        assert lost == [batch]
        assert stats.tuples_lost.total == 4
        assert logic.seen == []
        assert executor.metrics.processed_batches.total == 0
        assert all(not shard.data for shard in service._shards.values())

    def test_reassignment_never_migrates(self, env):
        cluster = Cluster(env, num_nodes=4)
        service = ExternalStateService(env, cluster.network, storage_nodes=[3])
        logic = CountingLogic()
        executor = self.make_executor(env, cluster, service, logic)

        def feed():
            for i in range(200):
                batch = TupleBatch(key=i % 16, count=2, cpu_cost=1e-3,
                                   size_bytes=128, created_at=env.now)
                yield executor.input_queue.put(batch)

        env.process(feed())

        def churn():
            yield env.timeout(0.2)
            yield from executor.add_core(1)  # remote node
            yield env.timeout(0.5)
            yield from executor.add_core(1)

        env.process(churn())
        env.run(until=5.0)
        assert executor.num_cores == 3
        migrated = cluster.network.bytes_by_purpose[TransferPurpose.STATE_MIGRATION]
        assert migrated.total == 0  # the whole point of the external store
        assert len(logic.seen) == 200

    def test_access_cost_slows_processing(self, env):
        # Identical workload: the external-store executor is slower
        # because every batch pays a round trip.
        def run(external):
            local_env = Environment()
            cluster = Cluster(local_env, num_nodes=3,
                              network_latency=1e-3)
            service = (
                ExternalStateService(local_env, cluster.network, storage_nodes=[2])
                if external else None
            )
            logic = CountingLogic(cost=0.2e-3)
            spec = OperatorSpec("op", logic=logic, num_executors=1,
                                shards_per_executor=8)
            executor = ElasticExecutor(
                local_env, cluster, spec, index=0, local_node=0,
                external_state=service,
            )
            executor.connect([], sink_recorder=lambda b, n: None)
            executor.start(initial_cores=1)

            def feed():
                for i in range(3000):
                    batch = TupleBatch(key=i % 32, count=2, cpu_cost=0.2e-3,
                                       size_bytes=128, created_at=local_env.now)
                    yield executor.input_queue.put(batch)

            local_env.process(feed())
            local_env.run(until=2.0)
            return executor.metrics.processed_tuples.total

        shared = run(external=False)
        external = run(external=True)
        assert external < 0.5 * shared
