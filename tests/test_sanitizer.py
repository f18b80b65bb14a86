"""Tests for the runtime shard-ownership race sanitizer.

The unit tests drive :class:`ShardSanitizer` hooks directly with
synthetic violations (the paper's §3.3 exclusivity invariant broken on
purpose); the integration tests run a real elastic executor through
reassignment churn with ``REPRO_SANITIZE=1`` and assert the protocol
never trips it.
"""

import pytest

from repro.sanitize import ShardRaceError, ShardSanitizer, sanitize_enabled


@pytest.fixture
def san():
    return ShardSanitizer("op-0", num_shards=4)


class TestOwnershipUnit:
    def test_owner_access_passes(self, san):
        san.on_assign(0, task_id=1)
        san.on_access(0, task_id=1)

    def test_double_owner_access_mid_drain_aborts(self, san):
        """The synthetic mid-drain race: task 2 touches a shard that task 1
        is still draining."""
        san.on_assign(0, task_id=1)
        san.on_pause(0, src_task_id=1)
        san.on_access(0, task_id=1)  # the drain source may still drain
        with pytest.raises(ShardRaceError, match="mid-drain"):
            san.on_access(0, task_id=2)

    def test_wrong_owner_access_aborts(self, san):
        san.on_assign(0, task_id=1)
        with pytest.raises(ShardRaceError, match="owned by task 1"):
            san.on_access(0, task_id=2)

    def test_stale_epoch_batch_aborts(self, san):
        san.on_assign(0, task_id=1)
        batch = object()
        san.on_route(batch, 0)
        san.on_assign(0, task_id=2)  # ownership changed after routing
        with pytest.raises(ShardRaceError, match="stale"):
            san.on_access(0, task_id=1, batch=batch)

    def test_rerouted_batch_to_new_owner_passes(self, san):
        """A batch flushed to the *new* owner after reassignment is fine —
        only a stale route processed by a non-owner is a race."""
        san.on_assign(0, task_id=1)
        batch = object()
        san.on_route(batch, 0)
        san.on_assign(0, task_id=2)
        san.on_access(0, task_id=2, batch=batch)

    def test_double_drain_aborts(self, san):
        san.on_assign(0, task_id=1)
        san.on_pause(0, src_task_id=1)
        with pytest.raises(ShardRaceError, match="already draining"):
            san.on_pause(0, src_task_id=2)

    def test_resume_closes_drain_window(self, san):
        san.on_assign(0, task_id=1)
        san.on_pause(0, src_task_id=1)
        san.on_resume(0)
        san.on_assign(0, task_id=2)
        san.on_access(0, task_id=2)

    def test_orphaned_shard_access_is_ownerless(self, san):
        san.on_assign(0, task_id=1)
        san.on_orphan(0)
        # No owner: any task may touch it (re-home will assign one).
        san.on_access(0, task_id=3)

    def test_forget_drops_routing_stamp(self, san):
        san.on_assign(0, task_id=1)
        batch = object()
        san.on_route(batch, 0)
        san.forget(batch)
        san.on_assign(0, task_id=2)
        san.on_access(0, task_id=2, batch=batch)

    def test_reset_clears_everything(self, san):
        san.on_assign(0, task_id=1)
        san.on_pause(0, src_task_id=1)
        san.reset()
        san.on_assign(0, task_id=2)
        san.on_access(0, task_id=2)

    def test_abort_carries_ownership_trace(self, san):
        san.on_assign(0, task_id=1)
        san.on_pause(0, src_task_id=1)
        with pytest.raises(ShardRaceError) as exc_info:
            san.on_access(0, task_id=2)
        text = str(exc_info.value)
        assert "ownership trace" in text
        assert "assigned to task 1" in text
        assert "drain started" in text


class TestEnvGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        assert ShardSanitizer.from_env("op", 4) is None

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", ""])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert ShardSanitizer.from_env("op", 4) is None

    def test_enabled_returns_instance(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        san = ShardSanitizer.from_env("op", 4)
        assert isinstance(san, ShardSanitizer)
        assert san.num_shards == 4


class TestElasticIntegration:
    """A real executor under churn must never trip the sanitizer."""

    def _run_churn(self):
        from repro.cluster import Cluster
        from repro.executors import ElasticExecutor
        from repro.executors.config import ExecutorConfig
        from repro.logic.base import OperatorLogic
        from repro.sim import Environment
        from repro.topology import OperatorSpec, TupleBatch

        class CountingLogic(OperatorLogic):
            def __init__(self):
                self.count = 0

            def cpu_seconds(self, batch):
                return batch.count * 2e-3

            def process(self, batch, state):
                self.count += 1
                state.put(batch.key, state.get(batch.key, 0) + batch.count)
                return []

        env = Environment()
        cluster = Cluster(env, num_nodes=4, cores_per_node=4)
        logic = CountingLogic()
        spec = OperatorSpec(
            "op", logic=logic, num_executors=1, shards_per_executor=16,
            shard_state_bytes=32 * 1024,
        )
        executor = ElasticExecutor(
            env, cluster, spec, index=0, local_node=0,
            config=ExecutorConfig(balance_interval=0.1),
        )
        executor.connect([], sink_recorder=lambda batch, now: None)
        executor.start(initial_cores=1)

        def feed():
            for i in range(400):
                yield executor.input_queue.put(
                    TupleBatch(
                        key=0 if i % 3 else i % 8, count=1, cpu_cost=2e-3,
                        size_bytes=128, created_at=env.now,
                    )
                )

        def churn():
            yield env.timeout(0.2)
            yield from executor.add_core(0)
            yield env.timeout(0.2)
            yield from executor.add_core(1)
            yield env.timeout(0.3)
            yield from executor.remove_core(1)

        env.process(feed())
        env.process(churn())
        env.run(until=10.0)
        return executor, logic

    def test_sanitized_reassignment_churn_is_clean(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        executor, logic = self._run_churn()
        assert executor._san is not None
        assert logic.count == 400
        # The balancer plus explicit churn really did reassign shards.
        assert executor.reassignment_stats.records

    def test_sanitizer_absent_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        executor, logic = self._run_churn()
        assert executor._san is None
        assert logic.count == 400

    def test_sanitized_run_clean_under_heterogeneous_fabric(self, monkeypatch):
        """Jittered WAN latency plus asymmetric node classes reorder the
        raw delivery draws; the FIFO clamp must keep the migration
        protocol race-free under REPRO_SANITIZE=1 end to end."""
        from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        workload = MicroBenchmarkWorkload(
            rate=4000, num_keys=800, skew=0.9, omega=6.0, seed=5
        )
        topology = workload.build_topology(
            executors_per_operator=4, shards_per_executor=16
        )
        config = SystemConfig(
            paradigm=Paradigm.ELASTICUTOR, num_nodes=4, cores_per_node=4,
            source_instances=2, network_profile="cloud",
        )
        system = StreamSystem(topology, workload, config)
        result = system.run(duration=10.0, warmup=2.0)
        assert result.processed_tuples > 0
        assert result.migration_bytes > 0  # shard churn actually happened

    def test_corrupted_ownership_is_caught_live(self, monkeypatch):
        """Simulate the bug the sanitizer exists for: mid-churn, force a
        second task to touch a shard another task is draining."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        executor, _ = self._run_churn()
        san = executor._san
        shard = 0
        owner = executor.routing.entry(shard).task.task_id
        san.on_pause(shard, owner)
        with pytest.raises(ShardRaceError, match="mid-drain"):
            san.on_access(shard, owner + 1)
