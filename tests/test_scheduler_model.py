"""Unit and property tests for the queueing model and greedy allocation."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler import (
    ExecutorDemand,
    GreedyAllocator,
    JacksonNetworkModel,
    MMKModel,
    erlang_c,
)


class TestErlangC:
    def test_zero_load(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_unstable_queue_always_waits(self):
        assert erlang_c(2, 2.0) == 1.0
        assert erlang_c(2, 5.0) == 1.0

    def test_single_server_equals_utilization(self):
        # For M/M/1, P(wait) = rho.
        assert erlang_c(1, 0.5) == pytest.approx(0.5)
        assert erlang_c(1, 0.9) == pytest.approx(0.9)

    def test_known_value(self):
        # Classic table value: k=5, a=4 -> C ~ 0.5541.
        assert erlang_c(5, 4.0) == pytest.approx(0.5541, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(1, -1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        servers=st.integers(min_value=1, max_value=64),
        load_fraction=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_probability_bounds_and_monotonicity(self, servers, load_fraction):
        offered = servers * load_fraction
        value = erlang_c(servers, offered)
        assert 0.0 <= value <= 1.0
        if servers > 1:
            # More servers at the same offered load -> less waiting.
            assert erlang_c(servers, offered) <= erlang_c(servers - 1, offered) + 1e-12


class TestMMKModel:
    def test_min_stable_cores(self):
        assert MMKModel.min_stable_cores(999.0, 1000.0) == 1
        assert MMKModel.min_stable_cores(1000.0, 1000.0) == 2
        assert MMKModel.min_stable_cores(3500.0, 1000.0) == 4
        assert MMKModel.min_stable_cores(0.0, 1000.0) == 1

    def test_sojourn_unstable_is_inf(self):
        assert math.isinf(MMKModel.mean_sojourn(2000.0, 1000.0, 2))

    def test_sojourn_idle_is_service_time(self):
        assert MMKModel.mean_sojourn(0.0, 1000.0, 4) == pytest.approx(1e-3)

    def test_mm1_formula(self):
        # M/M/1: E[T] = 1/(mu - lambda).
        assert MMKModel.mean_sojourn(500.0, 1000.0, 1) == pytest.approx(1 / 500.0)

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(min_value=10.0, max_value=10_000.0),
        rho=st.floats(min_value=0.05, max_value=0.9),
        cores=st.integers(min_value=1, max_value=32),
    )
    def test_more_cores_never_hurt(self, mu, rho, cores):
        lam = rho * cores * mu
        with_k = MMKModel.mean_sojourn(lam, mu, cores)
        with_k1 = MMKModel.mean_sojourn(lam, mu, cores + 1)
        assert with_k1 <= with_k + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            MMKModel.mean_sojourn(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            MMKModel.mean_sojourn(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            MMKModel.min_stable_cores(-1.0, 1.0)


class TestJacksonNetwork:
    def test_single_executor_matches_mmk(self):
        model = JacksonNetworkModel(source_rate=100.0)
        latency = model.mean_latency([100.0], [1000.0], [1])
        assert latency == pytest.approx(MMKModel.mean_sojourn(100.0, 1000.0, 1))

    def test_weighted_sum(self):
        model = JacksonNetworkModel(source_rate=100.0)
        # Two identical executors each seeing the full stream: latency doubles.
        one = model.mean_latency([100.0], [1000.0], [1])
        two = model.mean_latency([100.0, 100.0], [1000.0, 1000.0], [1, 1])
        assert two == pytest.approx(2 * one)

    def test_unstable_executor_infects_network(self):
        model = JacksonNetworkModel(source_rate=100.0)
        assert math.isinf(model.mean_latency([100.0, 5000.0], [1000.0, 1000.0], [1, 1]))

    def test_validation(self):
        with pytest.raises(ValueError):
            JacksonNetworkModel(source_rate=0.0)
        model = JacksonNetworkModel(source_rate=1.0)
        with pytest.raises(ValueError):
            model.mean_latency([1.0], [1.0, 2.0], [1])


class TestGreedyAllocator:
    def test_idle_gets_minimum(self):
        allocator = GreedyAllocator(latency_target=0.1)
        allocation = allocator.allocate(
            [ExecutorDemand("a", 0.0, 1000.0)], total_cores=10
        )
        assert allocation.cores == {"a": 1}
        assert allocation.feasible

    def test_stability_minimum_respected(self):
        allocator = GreedyAllocator(latency_target=1e9)  # any latency OK
        allocation = allocator.allocate(
            [ExecutorDemand("a", 3500.0, 1000.0)], total_cores=100
        )
        assert allocation.cores["a"] == 4  # floor(3.5)+1

    def test_adds_cores_to_meet_latency_target(self):
        allocator = GreedyAllocator(latency_target=0.0015)
        allocation = allocator.allocate(
            [ExecutorDemand("a", 900.0, 1000.0)], total_cores=100
        )
        # One core: E[T] = 1/(1000-900) = 10 ms >> 1.5 ms target.
        assert allocation.cores["a"] >= 2
        assert allocation.feasible
        assert allocation.expected_latency <= 0.0015

    def test_prioritizes_biggest_improvement(self):
        allocator = GreedyAllocator(latency_target=1e-6)  # unreachable
        hot = ExecutorDemand("hot", 950.0, 1000.0)
        cold = ExecutorDemand("cold", 10.0, 1000.0)
        allocation = allocator.allocate([hot, cold], total_cores=4)
        assert allocation.cores["hot"] > allocation.cores["cold"]
        assert allocation.total_cores == 4  # unreachable target: spend all

    def test_capacity_shortfall_best_effort(self):
        allocator = GreedyAllocator(latency_target=0.01)
        demands = [
            ExecutorDemand("a", 5000.0, 1000.0),  # wants 6
            ExecutorDemand("b", 5000.0, 1000.0),  # wants 6
        ]
        allocation = allocator.allocate(demands, total_cores=8)
        assert allocation.total_cores <= 8
        assert all(k >= 1 for k in allocation.cores.values())
        assert not allocation.feasible

    def test_empty_demands(self):
        allocation = GreedyAllocator(0.1).allocate([], total_cores=4)
        assert allocation.cores == {}

    def test_too_few_cores_rejected(self):
        allocator = GreedyAllocator(latency_target=0.1)
        with pytest.raises(ValueError):
            allocator.allocate(
                [ExecutorDemand("a", 1.0, 1.0), ExecutorDemand("b", 1.0, 1.0)],
                total_cores=1,
            )

    def test_explicit_zero_source_rate_is_not_unset(self):
        # Regression: ``if source_rate`` treated an explicit λ0 = 0 (an
        # idle source) as "derive from the demands", silently changing
        # the modelled network latency.  Only None means "derive".
        allocator = GreedyAllocator(latency_target=0.01)
        demands = [
            ExecutorDemand("a", 500.0, 1000.0),
            ExecutorDemand("b", 100.0, 1000.0),
        ]
        derived = allocator.allocate(demands, total_cores=6, source_rate=None)
        explicit = allocator.allocate(demands, total_cores=6, source_rate=0.0)
        # λ0 = 0 scales the latency estimate to ~infinity: unreachable
        # target, unlike the healthy derived-λ0 allocation.
        assert derived.feasible
        assert not explicit.feasible
        assert explicit.expected_latency > derived.expected_latency

    def test_near_zero_source_rate_clamps(self):
        # 0.0 and an epsilon rate clamp to the same floor rather than
        # dividing by zero.
        allocator = GreedyAllocator(latency_target=0.01)
        demands = [ExecutorDemand("a", 500.0, 1000.0)]
        zero = allocator.allocate(demands, total_cores=4, source_rate=0.0)
        tiny = allocator.allocate(demands, total_cores=4, source_rate=1e-12)
        assert zero.cores == tiny.cores
        assert zero.expected_latency == tiny.expected_latency
        assert math.isfinite(zero.expected_latency)

    def test_validation(self):
        with pytest.raises(ValueError):
            GreedyAllocator(latency_target=0.0)
        with pytest.raises(ValueError):
            ExecutorDemand("a", -1.0, 1.0)
        with pytest.raises(ValueError):
            ExecutorDemand("a", 1.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=5000.0), min_size=1, max_size=8
        ),
        target_ms=st.floats(min_value=0.5, max_value=100.0),
    )
    def test_allocation_invariants(self, rates, target_ms):
        allocator = GreedyAllocator(latency_target=target_ms / 1000.0)
        demands = [
            ExecutorDemand(f"e{i}", rate, 1000.0) for i, rate in enumerate(rates)
        ]
        total = 64
        allocation = allocator.allocate(demands, total_cores=total)
        assert allocation.total_cores <= total
        for demand in demands:
            assert allocation.cores[demand.name] >= 1
        if allocation.feasible:
            assert allocation.expected_latency <= target_ms / 1000.0 + 1e-12


def _greedy_instance(rng):
    """A small allocation problem whose minimum stable demand fits the
    cluster: 1-4 executors, at most 14 cores, a latency target drawn
    from the allocations' own latencies (so some are unreachable)."""
    num_executors = rng.randint(1, 4)
    total_cores = rng.randint(num_executors, 14)
    while True:
        demands = [
            ExecutorDemand(
                f"e{j}",
                rng.choice([0.0, rng.uniform(0.0, 4000.0)]),
                rng.uniform(200.0, 2000.0),
            )
            for j in range(num_executors)
        ]
        floor = sum(
            MMKModel.min_stable_cores(d.arrival_rate, d.service_rate)
            for d in demands
        )
        busy = any(d.arrival_rate > 0 for d in demands)
        if busy and floor <= total_cores:
            return demands, total_cores


def _exhaustive(demands, total_cores):
    """Modelled latency of every allocation with k_j >= 1 and at most
    ``total_cores`` in all: ``{cores tuple: E[T]}``."""
    model = JacksonNetworkModel(max(d.arrival_rate for d in demands))
    arrivals = [d.arrival_rate for d in demands]
    services = [d.service_rate for d in demands]
    return {
        cores: model.mean_latency(arrivals, services, cores)
        for cores in itertools.product(
            range(1, total_cores + 1), repeat=len(demands)
        )
        if sum(cores) <= total_cores
    }


@pytest.mark.parametrize("seed", range(8))
def test_greedy_allocator_matches_exhaustive_optimum(seed):
    """DRS's claim for the greedy (Fu et al., ICDCS'15), checked by brute
    force: at its own core total no allocation has lower modelled
    latency, no smaller allocation meets the target, and it reports
    infeasible only when no allocation within the cluster is feasible."""
    rng = random.Random(seed)
    for _ in range(250):
        demands, total_cores = _greedy_instance(rng)
        latencies = _exhaustive(demands, total_cores)
        finite = sorted(v for v in latencies.values() if math.isfinite(v))
        target = rng.choice(finite) * rng.uniform(0.97, 1.03)
        allocation = GreedyAllocator(target).allocate(demands, total_cores)
        used = allocation.total_cores

        best_at_used = min(
            latency for cores, latency in latencies.items() if sum(cores) == used
        )
        assert allocation.expected_latency == pytest.approx(
            best_at_used, rel=1e-12
        )
        meeting = [
            sum(cores) for cores, latency in latencies.items()
            if latency <= target
        ]
        if meeting:
            assert allocation.feasible
            assert used <= min(meeting)

