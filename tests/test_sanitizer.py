"""Tests for the runtime shard-ownership race sanitizer.

The unit tests drive :class:`ShardSanitizer` checks directly against
routing-table entries with synthetic violations (the paper's §3.3
exclusivity invariant broken on purpose); the integration tests run a
real elastic executor through reassignment churn with
``REPRO_SANITIZE=1`` and assert the protocol never trips it — and that
it does trip when a protocol step is skipped on purpose.
"""

import pytest

from repro.executors.routing import ShardEntry
from repro.sanitize import ShardRaceError, ShardSanitizer, sanitize_enabled


class _Task:
    def __init__(self, task_id):
        self.task_id = task_id


T1, T2, T3 = _Task(1), _Task(2), _Task(3)


@pytest.fixture
def san():
    return ShardSanitizer("op-0")


def owned(task, paused=False):
    entry = ShardEntry(0)
    entry.task = task
    entry.paused = paused
    return entry


class TestOwnershipUnit:
    def test_owner_access_passes(self, san):
        san.on_access(owned(T1), T1)

    def test_double_owner_access_mid_drain_aborts(self, san):
        """The synthetic mid-drain race: task 2 touches a shard that task 1
        is still draining."""
        entry = owned(T1, paused=True)
        san.on_access(entry, T1)  # the drain source may still drain
        with pytest.raises(ShardRaceError, match="routing owner: task 1"):
            san.on_access(entry, T2)

    def test_wrong_owner_access_aborts(self, san):
        with pytest.raises(ShardRaceError, match="task 2 accessed"):
            san.on_access(owned(T1), T2)

    def test_stale_epoch_batch_aborts(self, san):
        """A batch routed to task 1 before the shard moved to task 2 must
        not be processed by task 1."""
        entry = owned(T1)
        entry.task = T2  # ownership changed after routing
        with pytest.raises(ShardRaceError, match="task 1 accessed"):
            san.on_access(entry, T1)

    def test_rerouted_batch_to_new_owner_passes(self, san):
        """A batch flushed to the *new* owner after reassignment is fine —
        only a stale route processed by a non-owner is a race."""
        entry = owned(T1)
        entry.task = T2
        san.on_access(entry, T2)

    def test_double_drain_aborts(self, san):
        with pytest.raises(ShardRaceError, match="already paused"):
            san.on_pause(owned(T1, paused=True))

    def test_resume_closes_drain_window(self, san):
        entry = owned(T1)
        san.on_pause(entry)
        entry.paused = True
        entry.task = T2
        entry.paused = False
        san.on_access(entry, T2)
        san.on_pause(entry)  # the next move may start

    def test_orphaned_shard_access_is_ownerless(self, san):
        # No owner: every access aborts until re-homing assigns one.
        entry = owned(None, paused=True)
        with pytest.raises(ShardRaceError, match="routing owner: orphaned"):
            san.on_access(entry, T3)
        # Pausing an orphan is the crash's doing, not a second drain.
        san.on_pause(entry)

    def test_abort_carries_ownership_trace(self):
        class Clock:
            now = 2.5

        san = ShardSanitizer("op-0", clock=Clock())
        entry = owned(T1, paused=True)
        entry.shard_id = 7
        with pytest.raises(ShardRaceError) as exc_info:
            san.on_access(entry, T2)
        assert str(exc_info.value) == (
            "op-0 shard 7: task 2 accessed its state "
            "(routing owner: task 1, paused: True, t=2.5)"
        )


class TestEnvGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        assert ShardSanitizer.from_env("op") is None

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", ""])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert ShardSanitizer.from_env("op") is None

    def test_enabled_returns_instance(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        san = ShardSanitizer.from_env("op")
        assert isinstance(san, ShardSanitizer)
        assert san.executor_name == "op"


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
        """Simulate the bug the sanitizer exists for: after churn, a task
        touches a shard the routing table gives to another task."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        executor, _ = self._run_churn()
        entry = executor.routing.entry(0)
        other = next(t for t in executor.tasks.values() if t is not entry.task)
        with pytest.raises(ShardRaceError, match="routing owner: task"):
            executor._san.on_access(entry, other)

    @staticmethod
    def _skip_label_chase(monkeypatch):
        """Injected bug: a move's labeling tuple succeeds at once instead
        of chasing the shard's pending tuples through the source queue."""
        from repro.executors import ElasticExecutor
        from repro.topology import LabelTuple

        forward = ElasticExecutor._forward

        def skipping_forward(self, item, task):
            if isinstance(item, LabelTuple):
                item.event.succeed()
                return item.event
            return forward(self, item, task)

        monkeypatch.setattr(ElasticExecutor, "_forward", skipping_forward)

    def test_skipped_label_chase_is_caught(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        self._skip_label_chase(monkeypatch)
        with pytest.raises(ShardRaceError, match="accessed its state"):
            self._run_churn()

    def test_skipped_label_chase_escapes_the_tuple_ledger(self, monkeypatch):
        """Unsanitized, the same bug loses no tuple: every batch is still
        counted as processed, so only the sanitizer can see the race."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        self._skip_label_chase(monkeypatch)
        executor, logic = self._run_churn()
        assert logic.count == 400
        assert executor.reassignment_stats.records

    def test_second_live_move_of_a_paused_shard_is_caught(self, monkeypatch):
        """Injected bug: two live moves of one shard run at once; the
        second finds the shard already paused by the first."""
        from repro.sim.process import ProcessCrash

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        executor, _ = self._run_churn()
        env = executor.env
        src = executor.routing.entry(0).task
        dst = next(t for t in executor.tasks.values() if t is not src)
        env.process(executor._move_shard(0, src, dst))
        env.process(executor._move_shard(0, src, dst))
        with pytest.raises(ProcessCrash, match="already paused") as exc_info:
            env.run(until=env.now + 1.0)
        assert isinstance(exc_info.value.__cause__, ShardRaceError)
