"""Property battery over both scheduling strategies (docs/scheduling.md).

One parametrized fixture drives each strategy — reactive and naive-EC —
through the same invariants:

- core conservation: every assignment plan grants each executor exactly
  its target and never oversubscribes a node;
- shard integrity: after scheduler-driven reassignments no shard is
  orphaned or doubly owned;
- monotonicity: scaling demand up never shrinks the allocation;
- determinism: identical seeded runs produce bit-identical plans.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

# The strategy_cls fixture is an immutable class shared across
# generated examples, so it is safe to keep function scope.
battery_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

from repro.cluster import Cluster
from repro.executors import ElasticExecutor
from repro.executors.config import ExecutorConfig
from repro.logic.base import OperatorLogic
from repro.scheduler import DynamicScheduler, GreedyAllocator
from repro.scheduler.allocation import ExecutorDemand
from repro.scheduler.assignment import AssignmentInput
from repro.scheduler.strategies import NaiveECStrategy, ReactiveStrategy
from repro.sim import Environment
from repro.topology import OperatorSpec, TupleBatch


@pytest.fixture(
    params=[ReactiveStrategy, NaiveECStrategy], ids=lambda cls: cls.name
)
def strategy_cls(request):
    """Each scheduling strategy — THE battery axis."""
    return request.param


# -- hypothesis scenario generation ------------------------------------------


@st.composite
def assignment_scenarios(draw):
    """A feasible AssignmentInput over a small cluster."""
    num_nodes = draw(st.integers(min_value=1, max_value=4))
    cores_per_node = draw(st.integers(min_value=1, max_value=5))
    node_capacity = {i: cores_per_node for i in range(num_nodes)}
    total = num_nodes * cores_per_node
    num_executors = draw(st.integers(min_value=1, max_value=min(4, total)))
    names = [f"ex{j}" for j in range(num_executors)]

    # Targets that always fit the cluster.
    budget = total
    targets = {}
    for index, name in enumerate(names):
        remaining_executors = num_executors - index - 1
        cap = budget - remaining_executors
        targets[name] = draw(st.integers(min_value=1, max_value=max(1, cap)))
        budget -= targets[name]

    # A valid current assignment: place some cores without oversubscribing.
    free = dict(node_capacity)
    current = {}
    for name in names:
        held = draw(st.integers(min_value=0, max_value=2))
        placement = {}
        for _ in range(held):
            open_nodes = [i for i in free if free[i] > 0]
            if not open_nodes:
                break
            node = draw(st.sampled_from(sorted(open_nodes)))
            free[node] -= 1
            placement[node] = placement.get(node, 0) + 1
        if placement:
            current[name] = placement

    local_node = {
        name: draw(st.integers(min_value=0, max_value=num_nodes - 1))
        for name in names
    }
    state_bytes = {
        name: float(draw(st.integers(min_value=0, max_value=10_000_000)))
        for name in names
    }
    data_rates = {
        name: float(draw(st.integers(min_value=0, max_value=2_000_000)))
        for name in names
    }
    return AssignmentInput(
        targets=targets,
        current=current,
        local_node=local_node,
        state_bytes=state_bytes,
        data_rates=data_rates,
        node_capacity=node_capacity,
    )


# -- property: core conservation ---------------------------------------------


class TestCoreConservation:
    @battery_settings
    @given(inp=assignment_scenarios())
    def test_plan_meets_targets_within_capacity(self, strategy_cls, inp):
        strategy = strategy_cls()
        matrix, phi_used = strategy.assign(inp)
        # Exactly the target for every executor — no more, no less.
        for name, target in inp.targets.items():
            granted = sum(matrix.get(name, {}).values())
            assert granted == target, (strategy.name, name)
        # Every entry positive, on a known node, within node capacity.
        used = {node: 0 for node in inp.node_capacity}
        for name, placement in matrix.items():
            for node, count in placement.items():
                assert count > 0
                assert node in inp.node_capacity
                used[node] += count
        for node, count in used.items():
            assert count <= inp.node_capacity[node]
        assert phi_used > 0

    @battery_settings
    @given(inp=assignment_scenarios())
    def test_plan_is_deterministic(self, strategy_cls, inp):
        import copy

        a = strategy_cls().assign(copy.deepcopy(inp))
        b = strategy_cls().assign(copy.deepcopy(inp))
        assert a == b


# -- property: allocation monotonicity ---------------------------------------


class TestMonotonicity:
    @battery_settings
    @given(
        arrivals=st.lists(
            st.floats(min_value=1.0, max_value=3_000.0),
            min_size=1,
            max_size=4,
        ),
        scale=st.floats(min_value=1.0, max_value=3.0),
    )
    def test_allocated_cores_monotone_under_scaled_demand(
        self, strategy_cls, arrivals, scale
    ):
        """Uniformly scaling every arrival never shrinks the cores a round
        places: the allocation's targets, through the strategy's plan."""
        strategy = strategy_cls()
        allocator = GreedyAllocator(latency_target=0.05)
        node_capacity = {node: 4 for node in range(4)}

        def allocate(factor):
            demands = [
                ExecutorDemand(
                    name=f"ex{j}",
                    arrival_rate=arrival * factor,
                    service_rate=1000.0,
                )
                for j, arrival in enumerate(arrivals)
            ]
            targets = allocator.allocate(demands, total_cores=16).cores
            matrix, _ = strategy.assign(
                AssignmentInput(
                    targets=targets,
                    current={},
                    local_node={name: 0 for name in targets},
                    state_bytes={name: 0.0 for name in targets},
                    data_rates={name: 0.0 for name in targets},
                    node_capacity=node_capacity,
                )
            )
            return sum(sum(placement.values()) for placement in matrix.values())

        assert allocate(scale) >= allocate(1.0)


# -- property: shard integrity + seeded-run determinism ----------------------


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
            "op",
            logic=CostLogic(),
            num_executors=num_executors,
            shards_per_executor=16,
        )
        executor = ElasticExecutor(
            env,
            cluster,
            spec,
            index=i,
            local_node=i % num_nodes,
            config=ExecutorConfig(balance_interval=0.5),
        )
        executor.connect([], sink_recorder=lambda b, n: None)
        cluster.cores.allocate(executor.name, executor.local_node, 1)
        executor.start(initial_cores=1)
        executors.append(executor)
    return env, cluster, executors


def feed(env, executor, rate, cost=1e-3, batch_size=10, ramp=0.0):
    """Deterministic open-loop feed; optional linear ramp of the rate."""

    def body():
        tick = 0.05
        index = 0
        while True:
            start = index * tick
            if start > env.now:
                yield env.timeout(start - env.now)
            current_rate = rate + ramp * start
            n = int(current_rate * tick / batch_size)
            for j in range(n):
                batch = TupleBatch(
                    key=(index * n + j) % 100,
                    count=batch_size,
                    cpu_cost=cost,
                    size_bytes=128,
                    created_at=env.now,
                )
                batch.admitted_at = env.now
                yield executor.input_queue.put(batch)
            index += 1

    return env.process(body())


def run_world(strategy_cls, until=8.0):
    env, cluster, executors = make_world(num_executors=2)
    feed(env, executors[0], rate=800, ramp=250.0)
    feed(env, executors[1], rate=400)
    scheduler = DynamicScheduler(
        env,
        cluster,
        executors,
        interval=0.5,
        strategy=strategy_cls(),
    )
    scheduler.start()
    env.run(until=until)
    return env, cluster, executors, scheduler


def assert_shard_integrity(executor):
    """Every shard owned by exactly one live task; tables consistent."""
    routing = executor.routing
    assignment = routing.assignment()
    # No orphans: every shard has an owner.
    assert sorted(assignment) == list(range(executor.num_shards))
    # No double ownership: the per-task shard sets partition the space.
    seen = set()
    for task in routing.tasks:
        shards = routing.shards_of(task)
        assert not (shards & seen)
        seen |= shards
        for shard_id in shards:
            assert assignment[shard_id] is task
    assert seen == set(range(executor.num_shards))
    # Cores and tasks line up with the cluster ledger.
    assert len(routing.tasks) == executor.num_cores
    assert executor.cluster.cores.held_total(executor.name) == executor.num_cores


class TestShardIntegrity:
    def test_no_orphan_or_double_ownership_after_rounds(self, strategy_cls):
        env, cluster, executors, scheduler = run_world(strategy_cls)
        assert len(scheduler.report.rounds) >= 10
        # The ramped executor must actually have been resized (the plan
        # paths under test are the reassignment paths).
        assert scheduler.report.total_reassignments > 0
        for executor in executors:
            assert_shard_integrity(executor)

    def test_bit_identical_plans_across_seeded_runs(self, strategy_cls):
        outcomes = []
        for _ in range(2):
            env, cluster, executors, scheduler = run_world(strategy_cls)
            outcomes.append(
                (
                    [
                        (
                            r.time,
                            r.total_target_cores,
                            r.cores_added,
                            r.cores_removed,
                            r.strategy,
                        )
                        for r in scheduler.report.rounds
                    ],
                    [executor.cores_by_node() for executor in executors],
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_round_records_carry_strategy_name(self, strategy_cls):
        env, cluster, executors, scheduler = run_world(strategy_cls, until=3.0)
        assert scheduler.report.rounds
        assert all(r.strategy == strategy_cls.name for r in scheduler.report.rounds)
