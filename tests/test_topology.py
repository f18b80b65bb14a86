"""Unit and property tests for keys, batches, and the topology DAG."""

import array
import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import SyntheticLogic
from repro.topology import batch as batch_module
from repro.topology import keys as keys_module
from repro.topology import (
    KeySpace,
    TopologyBuilder,
    TopologyError,
    TupleBatch,
    executor_of_key,
    shard_of_key,
    stable_hash,
)
from repro.topology.operator import OperatorSpec


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash(42, salt=1) == stable_hash(42, salt=1)

    def test_salt_changes_hash(self):
        assert stable_hash(42, salt=1) != stable_hash(42, salt=2)

    def test_spreads_sequential_keys(self):
        buckets = collections.Counter(stable_hash(k) % 16 for k in range(16_000))
        for count in buckets.values():
            assert 700 < count < 1300  # roughly uniform

    @settings(max_examples=100, deadline=None)
    @given(key=st.integers(min_value=0, max_value=2**62))
    def test_hash_in_64_bit_range(self, key):
        assert 0 <= stable_hash(key) < 2**64

    @settings(max_examples=50, deadline=None)
    @given(key=st.integers(min_value=0, max_value=10**9))
    def test_partitions_consistent(self, key):
        executor = executor_of_key(key, 32)
        shard = shard_of_key(key, 256)
        assert executor == executor_of_key(key, 32)
        assert shard == shard_of_key(key, 256)
        assert 0 <= executor < 32
        assert 0 <= shard < 256

    def test_tiers_are_independent(self):
        # Keys hashing to the same executor should still spread over shards.
        same_executor_keys = [k for k in range(50_000) if executor_of_key(k, 32) == 0]
        shards = {shard_of_key(k, 256) for k in same_executor_keys}
        assert len(shards) > 200

    def test_validation(self):
        with pytest.raises(ValueError):
            executor_of_key(1, 0)
        with pytest.raises(ValueError):
            shard_of_key(1, 0)


class TestShardLookup:
    def test_matches_module_functions(self):
        # The table covers keys 0..999; keys past it (and negative ones)
        # are hashed per lookup and must agree with the table's hash.
        shards = keys_module.shard_lookup(256, 1000)
        executors = keys_module.executor_lookup(32, 1000)
        for key in [*range(-5, 2000), 2**40 + 3]:
            assert shards[key] == shard_of_key(key, 256)
            assert executors[key] == executor_of_key(key, 32)

    def test_validates_at_construction(self):
        with pytest.raises(ValueError):
            keys_module.shard_lookup(0, 100)
        with pytest.raises(ValueError):
            keys_module.executor_lookup(-1, 100)
        with pytest.raises(ValueError):
            keys_module.shard_lookup(4, 0)

    # Each width's edges: the table takes the narrowest unsigned type
    # whose items hold every bucket index (0..buckets-1).
    @pytest.mark.parametrize("buckets, itemsize", [
        (1, 1), (255, 1), (256, 1), (257, 2), (65_535, 2), (65_536, 2), (65_537, 4),
    ])
    def test_table_is_compact_and_exact(self, buckets, itemsize):
        num_keys, salt = 3000, 5
        lookup = keys_module.DenseLookup(num_keys, buckets, salt)
        table = lookup.table
        assert isinstance(table, array.array)
        assert table.itemsize == itemsize
        assert len(table) == num_keys
        assert list(table) == [stable_hash(k, salt) % buckets for k in range(num_keys)]
        # Keys past the table take the scalar hash.
        for key in range(num_keys, num_keys + 500):
            assert lookup[key] == stable_hash(key, salt) % buckets

    def test_table_is_capped(self, monkeypatch):
        # A declared key space past the cap tabulates only the cap; the
        # keys beyond it still route by the scalar hash.
        monkeypatch.setattr(keys_module, "_DENSE_TABLE_LIMIT", 64)
        lookup = keys_module.shard_lookup(16, 10_000)
        assert lookup.num_keys == 64
        for key in range(10_000):
            assert lookup[key] == shard_of_key(key, 16)


class TestKeySpace:
    def test_membership_and_iteration(self):
        space = KeySpace(5)
        assert 4 in space
        assert 5 not in space
        assert list(space) == [0, 1, 2, 3, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            KeySpace(0)


class TestTupleBatch:
    def test_totals(self):
        batch = TupleBatch(key=1, count=10, cpu_cost=0.001, size_bytes=128, created_at=0.0)
        assert batch.total_bytes == 1280
        assert batch.total_cpu_cost == pytest.approx(0.01)

    def test_validation_when_debug_enabled(self):
        previous = batch_module.set_debug_validation(True)
        try:
            with pytest.raises(ValueError):
                TupleBatch(key=1, count=0, cpu_cost=0.0, size_bytes=0, created_at=0.0)
            with pytest.raises(ValueError):
                TupleBatch(key=1, count=1, cpu_cost=-1.0, size_bytes=0, created_at=0.0)
        finally:
            batch_module.set_debug_validation(previous)

    def test_validation_off_by_default(self):
        # The hot constructor must not pay for validation in normal runs.
        assert not batch_module.validation_enabled()
        batch = TupleBatch(key=1, count=0, cpu_cost=-1.0, size_bytes=0, created_at=0.0)
        assert batch.count == 0


class TestOperatorSpec:
    def test_total_shards(self):
        spec = OperatorSpec("op", logic=SyntheticLogic(), num_executors=32, shards_per_executor=256)
        assert spec.total_shards == 8192

    def test_non_source_requires_logic(self):
        with pytest.raises(ValueError):
            OperatorSpec("op")

    def test_source_needs_no_logic(self):
        spec = OperatorSpec("src", is_source=True)
        assert spec.logic is None


class TestTopologyBuilder:
    def build_linear(self):
        builder = TopologyBuilder()
        builder.add_source("generator")
        builder.add_operator("calculator", SyntheticLogic(), upstream=["generator"])
        return builder.build()

    def test_linear_topology(self):
        topology = self.build_linear()
        assert topology.sources() == ["generator"]
        assert topology.sinks() == ["calculator"]
        assert topology.downstream("generator") == ["calculator"]
        assert topology.upstream("calculator") == ["generator"]

    def test_topological_iteration_order(self):
        builder = TopologyBuilder()
        builder.add_source("src")
        builder.add_operator("a", SyntheticLogic(), upstream=["src"])
        builder.add_operator("b", SyntheticLogic(), upstream=["a"])
        builder.add_operator("c", SyntheticLogic(), upstream=["src", "b"])
        names = [spec.name for spec in builder.build()]
        assert names.index("src") < names.index("a") < names.index("b") < names.index("c")

    def test_fanout_topology(self):
        builder = TopologyBuilder()
        builder.add_source("orders")
        builder.add_operator("transactor", SyntheticLogic(), upstream=["orders"])
        for i in range(11):
            builder.add_operator(f"analytics_{i}", SyntheticLogic(), upstream=["transactor"])
        topology = builder.build()
        assert len(topology.downstream("transactor")) == 11
        assert len(topology.sinks()) == 11

    def test_duplicate_name_rejected(self):
        builder = TopologyBuilder()
        builder.add_source("x")
        with pytest.raises(TopologyError):
            builder.add_source("x")

    def test_unknown_upstream_rejected(self):
        builder = TopologyBuilder()
        builder.add_source("src")
        builder.add_operator("op", SyntheticLogic(), upstream=["ghost"])
        with pytest.raises(TopologyError):
            builder.build()

    def test_operator_without_upstream_rejected(self):
        with pytest.raises(TopologyError):
            TopologyBuilder().add_operator("op", SyntheticLogic(), upstream=[])

    def test_no_source_rejected(self):
        builder = TopologyBuilder()
        with pytest.raises(TopologyError):
            builder.build()

    def test_cycle_rejected(self):
        from repro.topology.graph import Topology

        specs = {
            "src": OperatorSpec("src", is_source=True),
            "a": OperatorSpec("a", logic=SyntheticLogic()),
            "b": OperatorSpec("b", logic=SyntheticLogic()),
        }
        edges = [("src", "a"), ("a", "b"), ("b", "a")]
        with pytest.raises(TopologyError):
            Topology(specs, edges)

    def test_self_loop_rejected(self):
        from repro.topology.graph import Topology

        specs = {
            "src": OperatorSpec("src", is_source=True),
            "a": OperatorSpec("a", logic=SyntheticLogic()),
        }
        with pytest.raises(TopologyError):
            Topology(specs, [("src", "a"), ("a", "a")])
