"""Unit tests for shard state, process stores, and migration."""

import pytest

from repro.cluster import NetworkFabric, TransferPurpose
from repro.sim import Environment
from repro.state import MigrationClock, ProcessStateStore, ShardState, StateError, migrate_shard


@pytest.fixture
def env():
    return Environment()


class TestShardState:
    def test_defaults(self):
        shard = ShardState(7)
        assert shard.shard_id == 7
        assert shard.nominal_bytes == 32 * 1024
        assert shard.data == {}

    def test_resize(self):
        shard = ShardState(0, nominal_bytes=100)
        shard.resize(500)
        assert shard.nominal_bytes == 500
        with pytest.raises(ValueError):
            shard.resize(-1)


class TestProcessStateStore:
    def test_add_get_remove(self):
        store = ProcessStateStore("ex0", node_id=0)
        shard = ShardState(3, nominal_bytes=10)
        store.add(shard)
        assert 3 in store
        assert store.get(3) is shard
        assert store.remove(3) is shard
        assert 3 not in store

    def test_double_add_rejected(self):
        store = ProcessStateStore("ex0", node_id=0)
        store.add(ShardState(1))
        with pytest.raises(StateError):
            store.add(ShardState(1))

    def test_missing_shard_raises(self):
        store = ProcessStateStore("ex0", node_id=0)
        with pytest.raises(StateError):
            store.get(99)
        with pytest.raises(StateError):
            store.remove(99)

    def test_total_bytes(self):
        store = ProcessStateStore("ex0", node_id=0)
        store.add(ShardState(1, nominal_bytes=100))
        store.add(ShardState(2, nominal_bytes=200))
        assert store.total_bytes() == 300
        assert store.shard_ids == (1, 2)

    def test_total_bytes_follows_resize_and_moves(self):
        src = ProcessStateStore("ex0", node_id=0)
        dst = ProcessStateStore("ex0", node_id=1)
        shard = ShardState(1, nominal_bytes=100)
        src.add(shard)
        src.add(ShardState(2, nominal_bytes=200))
        shard.resize(150)
        assert src.total_bytes() == 350
        dst.add(src.remove(1))
        shard.resize(40)
        assert (src.total_bytes(), dst.total_bytes()) == (200, 40)
        assert src.total_bytes() == sum(src.get(i).nominal_bytes for i in src.shard_ids)


class TestMigration:
    def test_cross_node_migration_moves_state_and_pays_network(self, env):
        fabric = NetworkFabric(env, num_nodes=2, bandwidth_bytes_per_s=1e6, base_latency=0.01)
        src = ProcessStateStore("ex0", node_id=0)
        dst = ProcessStateStore("ex0", node_id=1)
        shard = ShardState(5, nominal_bytes=100_000)
        shard.data[42] = "sticky"
        src.add(shard)

        proc = env.process(migrate_shard(env, fabric, src, dst, 5))
        env.run()

        assert 5 not in src
        assert dst.get(5).data[42] == "sticky"
        assert fabric.bytes_by_purpose[TransferPurpose.STATE_MIGRATION].total == 100_000
        # 0.1 s network + 0.01 latency + 2 * serialization.
        expected = 0.1 + 0.01 + 2 * MigrationClock().serialization_delay(100_000)
        assert proc.value == pytest.approx(expected)

    def test_same_node_migration_forbidden_between_identical_stores(self, env):
        from repro.sim import ProcessCrash

        fabric = NetworkFabric(env, num_nodes=1)
        store = ProcessStateStore("ex0", node_id=0)
        store.add(ShardState(1))
        env.process(migrate_shard(env, fabric, store, store, 1))
        with pytest.raises(ProcessCrash, match="identical src and dst"):
            env.run()

    def test_migration_duration_scales_with_size(self, env):
        fabric = NetworkFabric(env, num_nodes=2, bandwidth_bytes_per_s=1.25e8, base_latency=0.5e-3)
        durations = {}
        for node_pair, size in [((0, 1), 32 * 1024), ((1, 0), 32 * 1024 * 1024)]:
            src = ProcessStateStore("ex", node_id=node_pair[0])
            dst = ProcessStateStore("ex", node_id=node_pair[1])
            src.add(ShardState(0, nominal_bytes=size))
            proc = env.process(migrate_shard(env, fabric, src, dst, 0))
            env.run()
            durations[size] = proc.value
        assert durations[32 * 1024 * 1024] > 50 * durations[32 * 1024]

    def test_clock_validation(self):
        with pytest.raises(ValueError):
            MigrationClock(serialization_bytes_per_s=0)


class TestSpillableKeyStore:
    """The bounded store must be observationally identical to a dict."""

    def test_matches_dict_under_random_ops(self):
        import random

        from repro.state import SpillableKeyStore

        rng = random.Random(11)
        store = SpillableKeyStore(hot_capacity=16)
        reference = {}
        for _ in range(5000):
            key = rng.randrange(200)
            op = rng.random()
            if op < 0.5:
                value = (rng.randrange(1000), "payload")
                store[key] = value
                reference[key] = value
            elif op < 0.8:
                assert store.get(key, -1) == reference.get(key, -1)
            elif op < 0.9:
                assert (key in store) == (key in reference)
            else:
                assert store.pop(key, None) == reference.pop(key, None)
            assert len(store) == len(reference)
        assert sorted(store) == sorted(reference)
        assert dict(store.items()) == reference
        # The workload is 200 keys against a 16-entry hot tier: spills
        # and cold fetches must both actually have happened.
        assert store.spill_count > 0
        assert store.fetch_count > 0
        assert store.cold_entries > 0
        assert store.cold_bytes() > 0

    def test_pop_missing_raises(self):
        from repro.state import SpillableKeyStore

        store = SpillableKeyStore(hot_capacity=4)
        with pytest.raises(KeyError):
            store.pop(42)
        assert store.pop(42, "d") == "d"

    def test_hot_tier_is_bounded(self):
        from repro.state import SpillableKeyStore

        store = SpillableKeyStore(hot_capacity=8)
        for key in range(1000):
            store[key] = key * 2
        assert store.hot_entries <= 8
        assert len(store) == 1000
        for key in (0, 500, 999):
            assert store.get(key) == key * 2

    def test_shard_state_hot_entries_wiring(self):
        from repro.state import SpillableKeyStore

        shard = ShardState(0, hot_entries=4)
        assert isinstance(shard.data, SpillableKeyStore)
        for key in range(32):
            shard.data[key] = key
        assert shard.data.hot_entries <= 4
        assert len(shard.data) == 32

    def test_spilled_run_matches_plain_dict_run(self):
        """End to end: bounding state memory must not change results."""
        from repro import (
            MicroBenchmarkWorkload,
            Paradigm,
            StreamSystem,
            SystemConfig,
        )

        def run(hot_state_entries):
            workload = MicroBenchmarkWorkload(
                rate=4000, num_keys=3000, skew=0.6, omega=2.0,
                batch_size=20, seed=5,
            )
            topology = workload.build_topology(
                executors_per_operator=4, shards_per_executor=8,
                hot_state_entries=hot_state_entries,
            )
            config = SystemConfig(
                paradigm=Paradigm.ELASTICUTOR, num_nodes=2,
                cores_per_node=4, source_instances=1,
            )
            result = StreamSystem(topology, workload, config).run(
                duration=10.0, warmup=2.0
            )
            return result.processed_tuples, result.throughput_tps

        assert run(None) == run(16)
