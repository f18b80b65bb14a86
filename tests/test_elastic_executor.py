"""Integration tests for the elastic executor.

These drive an executor directly through its input queue — no scheduler,
no topology — and check the paper's §3 guarantees: multi-core scaling,
consistent shard reassignment (per-key order, no lost tuples), free
intra-node moves, and paid inter-node migrations.
"""

import typing

import pytest

from repro.cluster import Cluster, TransferPurpose
from repro.executors import ElasticExecutor, StaticExecutor
from repro.executors.config import ExecutorConfig
from repro.logic.base import OperatorLogic
from repro.sim import Environment
from repro.topology import OperatorSpec, TupleBatch
from repro.topology.keys import shard_of_key


class RecordingLogic(OperatorLogic):
    """Sink logic that records processing order."""

    def __init__(self, cost_per_tuple: float = 1e-3) -> None:
        self.cost_per_tuple = cost_per_tuple
        self.seen: typing.List[typing.Tuple[int, typing.Any]] = []

    def cpu_seconds(self, batch: TupleBatch) -> float:
        return batch.count * self.cost_per_tuple

    def process(self, batch, state):
        self.seen.append((batch.key, batch.payload))
        state.put(batch.key, state.get(batch.key, 0) + batch.count)
        return []


def make_executor(env, cluster, logic, shards=16, cores=1, config=None, state_bytes=32 * 1024):
    spec = OperatorSpec(
        "op", logic=logic, num_executors=1, shards_per_executor=shards,
        shard_state_bytes=state_bytes,
    )
    executor = ElasticExecutor(
        env, cluster, spec, index=0, local_node=0, config=config or ExecutorConfig()
    )
    executor.connect([], sink_recorder=lambda batch, now: None)
    executor.start(initial_cores=cores)
    return executor


def feed(env, executor, batches, spacing=0.0):
    """Feed batches into the executor's input queue as a process."""

    def body():
        for item in batches:
            yield executor.input_queue.put(item)
            if spacing > 0:
                yield env.timeout(spacing)

    return env.process(body())


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


class TestBasicProcessing:
    def test_processes_all_batches(self, env, cluster):
        logic = RecordingLogic()
        executor = make_executor(env, cluster, logic)
        feed(env, executor, [batch(key=k) for k in range(10)])
        env.run(until=5.0)
        assert len(logic.seen) == 10
        assert executor.metrics.processed_tuples.total == 10

    def test_single_core_throughput_bounded_by_cost(self, env, cluster):
        logic = RecordingLogic(cost_per_tuple=0.01)
        executor = make_executor(env, cluster, logic)
        feed(env, executor, [batch(key=k % 16, cost=0.01) for k in range(500)])
        env.run(until=1.0)
        # 1 core x 10 ms/tuple -> ~100 tuples max in 1 s.
        assert 80 <= executor.metrics.processed_tuples.total <= 105

    def test_state_accumulates_per_key(self, env, cluster):
        logic = RecordingLogic()
        executor = make_executor(env, cluster, logic)
        feed(env, executor, [batch(key=3, count=5), batch(key=3, count=7)])
        env.run(until=2.0)
        shard = shard_of_key(3, executor.num_shards)
        assert executor.stores[0].get(shard).data[3] == 12

    def test_sink_recorder_invoked(self, env, cluster):
        recorded = []
        logic = RecordingLogic()
        executor = ElasticExecutor(
            env, cluster,
            OperatorSpec("op", logic=logic, num_executors=1, shards_per_executor=8),
            index=0, local_node=0,
        )
        executor.connect([], sink_recorder=lambda b, now: recorded.append((b.key, now)))
        executor.start()
        feed(env, executor, [batch(key=1)])
        env.run(until=1.0)
        assert len(recorded) == 1
        assert recorded[0][0] == 1


class TestScaling:
    def test_add_local_core_no_migration(self, env, cluster):
        logic = RecordingLogic()
        executor = make_executor(env, cluster, logic, cores=1)

        def grow():
            yield env.timeout(0.1)
            yield from executor.add_core(0)

        env.process(grow())
        env.run(until=2.0)
        assert executor.num_cores == 2
        migrated = cluster.network.bytes_by_purpose[TransferPurpose.STATE_MIGRATION]
        assert migrated.total == 0  # intra-process state sharing

    def test_add_remote_core_migrates_state(self, env, cluster):
        logic = RecordingLogic()
        # Load must exist for the balancer to hand shards to the new task.
        config = ExecutorConfig(balance_interval=0.2)
        executor = make_executor(env, cluster, logic, cores=1, config=config)
        feed(env, executor, [batch(key=k % 16, cost=1e-3) for k in range(400)], spacing=0.002)

        def grow():
            yield env.timeout(0.5)
            yield from executor.add_core(1)

        env.process(grow())
        env.run(until=3.0)
        assert executor.num_cores == 2
        assert {t.node_id for t in executor.tasks.values()} == {0, 1}
        migrated = cluster.network.bytes_by_purpose[TransferPurpose.STATE_MIGRATION]
        assert migrated.total > 0
        assert len(executor.stores[1]) > 0

    def test_multi_core_scales_throughput(self, env, cluster):
        def run_with(cores):
            local_env = Environment()
            local_cluster = Cluster(local_env, num_nodes=4, cores_per_node=4)
            logic = RecordingLogic(cost_per_tuple=0.01)
            config = ExecutorConfig(balance_interval=0.25)
            executor = make_executor(
                local_env, local_cluster, logic, shards=32, cores=cores, config=config
            )
            feed(
                local_env, executor,
                [batch(key=k % 64, cost=0.01) for k in range(4000)],
            )
            local_env.run(until=4.0)
            return executor.metrics.processed_tuples.total

        one = run_with(1)
        four = run_with(4)
        assert four > 3.0 * one

    def test_remove_core_evacuates_and_continues(self, env, cluster):
        logic = RecordingLogic()
        config = ExecutorConfig(balance_interval=0.2)
        executor = make_executor(env, cluster, logic, cores=2, config=config)
        feed(env, executor, [batch(key=k % 16) for k in range(100)], spacing=0.005)

        def shrink():
            yield env.timeout(0.3)
            yield from executor.remove_core(0)

        env.process(shrink())
        env.run(until=3.0)
        assert executor.num_cores == 1
        assert len(logic.seen) == 100  # nothing lost
        # All shards ended on the surviving task.
        survivor = next(iter(executor.tasks.values()))
        assert len(executor.routing.shards_of(survivor)) == executor.num_shards

    def test_cannot_remove_last_core(self, env, cluster):
        from repro.sim import ProcessCrash

        executor = make_executor(env, cluster, RecordingLogic())
        env.process(executor.remove_core(0))
        with pytest.raises(ProcessCrash, match="last core"):
            env.run(until=1.0)

    def test_remove_core_without_task_on_node_fails(self, env, cluster):
        from repro.sim import ProcessCrash

        executor = make_executor(env, cluster, RecordingLogic(), cores=2)
        env.process(executor.remove_core(3))
        with pytest.raises(ProcessCrash, match="no task on node"):
            env.run(until=1.0)


class TestConsistency:
    def test_per_key_order_preserved_under_reassignment(self, env, cluster):
        """The paper's core correctness requirement (§2.1, §3.3)."""
        logic = RecordingLogic(cost_per_tuple=2e-3)
        config = ExecutorConfig(balance_interval=0.1)
        executor = make_executor(env, cluster, logic, shards=16, cores=1, config=config)

        # Skewed stream: key 0 is hot, so the balancer keeps moving shards.
        sequence = {k: 0 for k in range(8)}
        batches = []
        for i in range(600):
            key = 0 if i % 3 != 0 else (i % 8)
            batches.append(batch(key=key, cost=2e-3, payload=sequence[key]))
            sequence[key] += 1
        feed(env, executor, batches)

        def churn():
            yield env.timeout(0.2)
            yield from executor.add_core(0)
            yield env.timeout(0.2)
            yield from executor.add_core(1)
            yield env.timeout(0.2)
            yield from executor.add_core(1)
            yield env.timeout(0.3)
            yield from executor.remove_core(1)

        env.process(churn())
        env.run(until=10.0)

        assert len(logic.seen) == 600, "tuples lost or duplicated"
        per_key: typing.Dict[int, typing.List[int]] = {}
        for key, seq in logic.seen:
            per_key.setdefault(key, []).append(seq)
        for key, seqs in per_key.items():
            assert seqs == sorted(seqs), f"key {key} processed out of order"

    def test_reassignment_stats_recorded(self, env, cluster):
        logic = RecordingLogic()
        config = ExecutorConfig(balance_interval=0.1)
        executor = make_executor(env, cluster, logic, cores=1, config=config)
        feed(env, executor, [batch(key=k % 16) for k in range(200)], spacing=0.002)

        def churn():
            yield env.timeout(0.3)
            yield from executor.add_core(0)
            yield env.timeout(0.3)
            yield from executor.add_core(1)

        env.process(churn())
        env.run(until=3.0)
        stats = executor.reassignment_stats
        intra = stats.mean_breakdown(inter_node=False)
        inter = stats.mean_breakdown(inter_node=True)
        assert intra["count"] > 0
        assert inter["count"] > 0
        assert intra["migration"] == 0.0  # state sharing: no intra migration
        assert inter["migration"] > 0.0

    def test_imbalance_drops_after_balancing(self, env, cluster):
        logic = RecordingLogic(cost_per_tuple=1e-3)
        config = ExecutorConfig(balance_interval=0.2)
        executor = make_executor(env, cluster, logic, shards=32, cores=4, config=config)
        # Uniform keys so balance is achievable.
        feed(env, executor, [batch(key=k % 128, cost=1e-3) for k in range(3000)])
        env.run(until=3.0)
        assert executor.imbalance() <= 1.35  # theta=1.2 plus slack


class TestStaticExecutor:
    def test_rejects_scaling(self, env, cluster):
        spec = OperatorSpec("op", logic=RecordingLogic(), num_executors=1,
                            shards_per_executor=4)
        executor = StaticExecutor(env, cluster, spec, index=0, local_node=0)
        executor.connect([], sink_recorder=None)
        executor.start()
        with pytest.raises(NotImplementedError):
            executor.add_core(1)
        with pytest.raises(NotImplementedError):
            executor.remove_core(0)

    def test_rejects_multiple_initial_cores(self, env, cluster):
        spec = OperatorSpec("op", logic=RecordingLogic(), num_executors=1,
                            shards_per_executor=4)
        executor = StaticExecutor(env, cluster, spec, index=0, local_node=0)
        with pytest.raises(ValueError):
            executor.start(initial_cores=2)

    def test_processes_without_balancer(self, env, cluster):
        spec = OperatorSpec("op", logic=RecordingLogic(), num_executors=1,
                            shards_per_executor=4)
        logic = spec.logic
        executor = StaticExecutor(env, cluster, spec, index=0, local_node=0)
        executor.connect([], sink_recorder=None)
        executor.start()
        feed(env, executor, [batch(key=k) for k in range(20)])
        env.run(until=2.0)
        assert len(logic.seen) == 20
