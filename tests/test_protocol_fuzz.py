"""Property-based fuzzing of the consistent-reassignment protocol.

Hypothesis generates random workloads (keys, costs, timings) and random
elasticity churn (core adds/removes at arbitrary times, on arbitrary
nodes).  Whatever happens, the paper's §2.1 correctness requirement must
hold: same-key tuples process in arrival order, and nothing is lost.
"""

import typing

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.executors import ElasticExecutor
from repro.executors.config import ExecutorConfig
from repro.logic.base import OperatorLogic
from repro.sim import Environment
from repro.topology import OperatorSpec, TupleBatch


class OrderProbe(OperatorLogic):
    def __init__(self, cost=0.5e-3):
        self.cost = cost
        self.seen: typing.List[typing.Tuple[int, int]] = []

    def cpu_seconds(self, batch):
        return batch.count * self.cost

    def process(self, batch, state):
        state.put(batch.key, state.get(batch.key, 0) + batch.count)
        self.seen.append((batch.key, batch.payload))
        return []


churn_actions = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=2.0),  # when
        st.sampled_from(["add_local", "add_remote", "remove"]),
    ),
    min_size=1,
    max_size=6,
)

workload_spec = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),  # key
        st.integers(min_value=1, max_value=5),  # count
    ),
    min_size=20,
    max_size=150,
)


@settings(max_examples=25, deadline=None)
@given(workload=workload_spec, churn=churn_actions, shards=st.sampled_from([4, 16]))
def test_order_and_conservation_under_random_churn(workload, churn, shards):
    env = Environment()
    cluster = Cluster(env, num_nodes=3, cores_per_node=4)
    logic = OrderProbe()
    spec = OperatorSpec("op", logic=logic, num_executors=1,
                        shards_per_executor=shards)
    executor = ElasticExecutor(
        env, cluster, spec, index=0, local_node=0,
        config=ExecutorConfig(balance_interval=0.25),
    )
    executor.connect([], sink_recorder=lambda b, n: None)
    executor.start(initial_cores=1)

    sequence: typing.Dict[int, int] = {}

    def feeder():
        for key, count in workload:
            seq = sequence.get(key, 0)
            sequence[key] = seq + 1
            yield executor.input_queue.put(
                TupleBatch(key=key, count=count, cpu_cost=0.5e-3,
                           size_bytes=64, created_at=env.now, payload=seq)
            )
            yield env.timeout(0.005)

    env.process(feeder())

    def churner():
        for delay, action in churn:
            yield env.timeout(delay)
            if action == "add_local":
                yield from executor.add_core(0)
            elif action == "add_remote":
                yield from executor.add_core(1 + (executor.num_cores % 2))
            elif action == "remove" and executor.num_cores > 1:
                node = next(iter(executor.cores_by_node()))
                yield from executor.remove_core(node)

    env.process(churner())
    env.run(until=30.0)

    # Conservation: every batch processed exactly once.
    assert len(logic.seen) == len(workload)
    # Ordering: per-key sequence numbers are monotone.
    last: typing.Dict[int, int] = {}
    for key, seq in logic.seen:
        assert last.get(key, -1) < seq, f"key {key} out of order"
        last[key] = seq
    # State: per-key counts match what was fed.
    expected: typing.Dict[int, int] = {}
    for key, count in workload:
        expected[key] = expected.get(key, 0) + count
    for key, total in expected.items():
        found = sum(
            store.get(shard_id).data.get(key, 0)
            for store in executor.stores.values()
            for shard_id in store.shard_ids
        )
        assert found == total, f"key {key}: state {found} != fed {total}"


fault_actions = st.lists(
    st.floats(min_value=0.1, max_value=1.5),  # inter-crash delays
    min_size=1,
    max_size=4,
)


@settings(max_examples=20, deadline=None)
@given(workload=workload_spec, churn=churn_actions, crashes=fault_actions)
# A task crash during remove_core's evacuation leaves a shard routed to a
# task that is gone; the next add_core must plan around it, not raise.
@example(
    workload=[(0, 1)] * 20,
    churn=[(1.2734375, "remove"), (1.0, "add_local")],
    crashes=[1.28125],
)
# The same crash must not hand the evacuated shard back to the task being
# removed: key 21 (shard 15) keeps arriving after the removal, and none of
# it may vanish into the stopped task.
@example(
    workload=[(0, 1)] * 260 + [(21, 1)] * 3,
    churn=[(1.2734375, "remove"), (1.0, "add_local")],
    crashes=[1.28125],
)
def test_exactly_once_or_counted_lost_under_crashes(workload, churn, crashes):
    """§2.1 extended through failures: random task crashes (dead cores)
    interleave with elasticity churn and the balancer's own reassignments.
    Every admitted batch must be processed exactly once or dead-lettered
    with exact counters — and survivors keep per-key arrival order."""
    from repro.faults.recovery import DeadLetterReaper
    from repro.metrics.recovery import RecoveryStats

    env = Environment()
    cluster = Cluster(env, num_nodes=3, cores_per_node=4)
    logic = OrderProbe()
    spec = OperatorSpec("op", logic=logic, num_executors=1,
                        shards_per_executor=16)
    executor = ElasticExecutor(
        env, cluster, spec, index=0, local_node=0,
        config=ExecutorConfig(balance_interval=0.25),
    )
    executor.connect([], sink_recorder=lambda b, n: None)
    executor.start(initial_cores=2)

    stats = RecoveryStats()
    lost: typing.List[TupleBatch] = []
    reaper = DeadLetterReaper(env, stats, on_lost=lost.append)

    fed: typing.Dict[typing.Tuple[int, int], int] = {}
    sequence: typing.Dict[int, int] = {}

    def feeder():
        for key, count in workload:
            seq = sequence.get(key, 0)
            sequence[key] = seq + 1
            fed[(key, seq)] = count
            yield executor.input_queue.put(
                TupleBatch(key=key, count=count, cpu_cost=0.5e-3,
                           size_bytes=64, created_at=env.now, payload=seq)
            )
            yield env.timeout(0.005)

    env.process(feeder())

    def churner():
        for delay, action in churn:
            yield env.timeout(delay)
            if not executor.alive:
                return
            if action == "add_local":
                yield from executor.add_core(0)
            elif action == "add_remote":
                yield from executor.add_core(1 + (executor.num_cores % 2))
            elif action == "remove" and executor.num_cores > 1:
                node = next(iter(executor.cores_by_node()))
                try:
                    yield from executor.remove_core(node)
                except ValueError:
                    # A concurrent crash can steal the task this removal
                    # meant to keep; refusing to drop the last survivor
                    # is the correct response, not a failure.
                    pass

    env.process(churner())

    def crasher():
        # Runs concurrently with the churner and the balance daemon, so a
        # crash can land mid-reassignment — the hardest case for the
        # protocol's label/pause machinery.
        for delay in crashes:
            yield env.timeout(delay)
            if len(executor.tasks) < 2:
                continue  # keep at least one survivor to re-home onto
            victim = min(executor.tasks.values(), key=lambda t: t.task_id)
            node = victim.node_id
            orphans = executor.crash_tasks([victim], reaper)
            yield env.timeout(0.05)  # detection delay
            yield from executor.rehome_orphans(
                orphans, node, stats, rebuild_rate=100e6, lose_state=False
            )

    env.process(crasher())
    env.run(until=40.0)

    # Exactly once or counted lost — nothing silently dropped, nothing
    # duplicated, nothing stuck in a queue or pause buffer at the end.
    assert len(logic.seen) + len(lost) == len(workload)
    assert stats.batches_lost.total == len(lost)
    assert stats.tuples_lost.total == sum(batch.count for batch in lost)
    assert executor.routing.buffered_items() == 0
    for task in executor.tasks.values():
        assert len(task.queue) == 0
    seen_ids = {(key, seq) for key, seq in logic.seen}
    lost_ids = {(batch.key, batch.payload) for batch in lost}
    assert seen_ids.isdisjoint(lost_ids)
    assert seen_ids | lost_ids == set(fed)

    # Order: survivors of each key still process in arrival order.
    last: typing.Dict[int, int] = {}
    for key, seq in logic.seen:
        assert last.get(key, -1) < seq, f"key {key} out of order"
        last[key] = seq

    # State: crashes with lose_state=False migrate state intact, so every
    # key's count equals exactly the processed (non-lost) batches.
    expected: typing.Dict[int, int] = {}
    for (key, seq), count in fed.items():
        if (key, seq) in seen_ids:
            expected[key] = expected.get(key, 0) + count
    for key, total in expected.items():
        found = sum(
            store.get(shard_id).data.get(key, 0)
            for store in executor.stores.values()
            for shard_id in store.shard_ids
        )
        assert found == total, f"key {key}: state {found} != processed {total}"


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=5, max_size=40),
    seed=st.integers(min_value=0, max_value=100),
)
def test_network_fifo_per_link_pair(sizes, seed):
    """Transfers initiated in order on one (src, dst) pair deliver in order."""
    import random

    rng = random.Random(seed)
    env = Environment()
    cluster = Cluster(env, num_nodes=3, cores_per_node=1,
                      bandwidth_bps=1e6)
    deliveries: typing.List[int] = []

    def sender():
        for i, size in enumerate(sizes):
            event = cluster.network.transfer(0, 1, size)
            event.callbacks.append(lambda ev, i=i: deliveries.append(i))
            # Interleave some unrelated traffic to stress the links.
            if rng.random() < 0.5:
                cluster.network.transfer(0, 2, rng.randrange(1, 5000))
            yield env.timeout(rng.random() * 0.01)

    env.process(sender())
    env.run()
    assert deliveries == sorted(deliveries)


scheduling_crashes = st.lists(
    st.floats(min_value=0.3, max_value=2.5),  # inter-crash delays
    min_size=1,
    max_size=3,
)


@settings(max_examples=8, deadline=None)
@given(
    crashes=scheduling_crashes,
    base_rate=st.integers(min_value=300, max_value=600),
    ramp=st.integers(min_value=200, max_value=400),
)
def test_predictive_scheduling_under_crashes_and_sanitizer(
    crashes, base_rate, ramp
):
    """Fuzz the predictive scheduling path (docs/scheduling.md).

    A steep deterministic ramp (starting at t=2) on a capacity-capped
    cluster makes the Holt-Winters trend forecast run ahead of the
    measured rate, so the scheduler grows the executor (and the balance
    loop reassigns shards onto the new cores) on forecast demand; random
    task crashes land in between (and sometimes mid-reassignment).  With
    REPRO_SANITIZE=1 the owner-epoch sanitizer and the checked-in
    SHARD_REASSIGN table (balancing and re-homing walk it alike) must
    stay silent, and every batch is processed exactly once or counted
    lost."""
    import os

    # monkeypatch is function-scoped and so fights hypothesis; set and
    # restore the env var by hand around each generated example instead.
    saved = os.environ.get("REPRO_SANITIZE")
    os.environ["REPRO_SANITIZE"] = "1"
    try:
        _run_predictive_fuzz_example(crashes, base_rate, ramp)
    finally:
        if saved is None:
            os.environ.pop("REPRO_SANITIZE", None)
        else:
            os.environ["REPRO_SANITIZE"] = saved


def _run_predictive_fuzz_example(crashes, base_rate, ramp):
    from repro.faults.recovery import DeadLetterReaper
    from repro.metrics.recovery import RecoveryStats
    from repro.scheduler import DynamicScheduler
    from repro.scheduler.strategies import PredictiveStrategy

    env = Environment()
    # One core per node caps capacity at 3 cores: the ramp outruns what
    # the allocator can grant, so every round has cores to move.
    cluster = Cluster(env, num_nodes=3, cores_per_node=1)
    logic = OrderProbe(cost=2e-3)  # ~500 tuples/s/core: the ramp needs cores
    spec = OperatorSpec("op", logic=logic, num_executors=1,
                        shards_per_executor=16)
    executor = ElasticExecutor(
        env, cluster, spec, index=0, local_node=0,
        config=ExecutorConfig(balance_interval=0.25),
    )
    executor.connect([], sink_recorder=lambda b, n: None)
    assert executor._san is not None  # REPRO_SANITIZE took effect
    cluster.cores.allocate(executor.name, executor.local_node, 1)
    executor.start(initial_cores=1)

    # Aggressive smoothing + a long horizon: the trend forecast runs
    # ahead of the measurement mid-ramp, so growth is forecast-driven.
    strategy = PredictiveStrategy(alpha=0.8, beta=0.6, horizon=5)
    scheduler = DynamicScheduler(
        env, cluster, [executor], interval=0.5, strategy=strategy,
    )
    scheduler.start()

    stats = RecoveryStats()
    lost: typing.List[TupleBatch] = []
    reaper = DeadLetterReaper(env, stats, on_lost=lost.append)

    fed: typing.Dict[typing.Tuple[int, int], int] = {}
    sequence: typing.Dict[int, int] = {}

    def feeder():
        tick = 0.05
        index = 0
        while env.now < 16.0:
            start = index * tick
            if start > env.now:
                yield env.timeout(start - env.now)
            # Steep ramp to a plateau above cluster capacity.
            if start < 2.0:
                rate = base_rate
            else:
                rate = min(base_rate + 2.0 * ramp * (start - 2.0), 2400.0)
            for j in range(max(1, int(rate * tick / 5))):
                key = (index + j) % 16
                seq = sequence.get(key, 0)
                sequence[key] = seq + 1
                fed[(key, seq)] = 5
                yield executor.input_queue.put(
                    TupleBatch(key=key, count=5, cpu_cost=2e-3,
                               size_bytes=64, created_at=env.now, payload=seq)
                )
            index += 1

    env.process(feeder())

    def crasher():
        for delay in crashes:
            yield env.timeout(delay)
            if not executor.alive or len(executor.tasks) < 2:
                continue
            victim = min(executor.tasks.values(), key=lambda t: t.task_id)
            node = victim.node_id
            orphans = executor.crash_tasks([victim], reaper)
            yield env.timeout(0.05)
            yield from executor.rehome_orphans(
                orphans, node, stats, rebuild_rate=100e6, lose_state=False
            )

    env.process(crasher())
    env.run(until=40.0)
    # An adversarial example (several crashes shrinking capacity to a
    # single task against an above-capacity ramp) can leave thousands of
    # batches in the routing buffers at t=40.  The invariants below are
    # quiescence properties, so keep draining until every fed batch is
    # accounted for; the cap only bites on a genuine leak, which the
    # assertions then report.
    while len(logic.seen) + len(lost) < len(fed) and env.now < 400.0:
        env.run(until=env.now + 10.0)

    # The ramp must have made the scheduler move cores: the forecast-
    # driven reassignment path is what this fuzz exists to stress.
    assert scheduler.report.total_reassignments > 0

    # The sanitizer is abort-at-access: any owner-epoch race would have
    # raised ShardRaceError and failed the run already.

    # Exactly once or counted lost, through crashes AND forecast-driven
    # reassignments.
    assert len(logic.seen) + len(lost) == len(fed)
    assert stats.batches_lost.total == len(lost)
    assert executor.routing.buffered_items() == 0
    seen_ids = {(key, seq) for key, seq in logic.seen}
    lost_ids = {(batch.key, batch.payload) for batch in lost}
    assert seen_ids.isdisjoint(lost_ids)
    assert seen_ids | lost_ids == set(fed)

    # Order preserved per key among survivors.
    last: typing.Dict[int, int] = {}
    for key, seq in logic.seen:
        assert last.get(key, -1) < seq, f"key {key} out of order"
        last[key] = seq
