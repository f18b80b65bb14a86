"""Unit tests for executor building blocks: gate, sender, task, routing.

Task behaviour is checked on the real tasks of an elastic and an RC
executor: both paradigms run the one compiled task loop.
"""

import pytest

from repro.cluster import Cluster
from repro.cluster.network import TransferPurpose
from repro.executors import ElasticExecutor, RCOperatorManager
from repro.executors.channels import WindowedSender
from repro.executors.gate import OperatorGate
from repro.executors.routing import RoutingTable
from repro.executors.task import STOP, StopSignal, Task
from repro.faults.recovery import DeadLetterReaper
from repro.logic.base import OperatorLogic
from repro.metrics.recovery import RecoveryStats
from repro.sim import Environment, Store
from repro.topology import OperatorSpec
from repro.topology.batch import LabelTuple, TupleBatch


@pytest.fixture
def env():
    return Environment()


def batch(key=1, count=5, cost=1e-3, size=128, created=0.0, payload=None):
    return TupleBatch(
        key=key, count=count, cpu_cost=cost, size_bytes=size,
        created_at=created, payload=payload,
    )


class TestOperatorGate:
    def test_starts_open(self, env):
        gate = OperatorGate(env)
        assert not gate.closed

    def test_wait_on_open_gate_is_immediate(self, env):
        gate = OperatorGate(env)
        times = []

        def body():
            yield gate.wait_open()
            times.append(env.now)

        env.process(body())
        env.run()
        assert times == [0.0]

    def test_close_blocks_until_open(self, env):
        gate = OperatorGate(env)
        gate.close()
        times = []

        def waiter():
            yield gate.wait_open()
            times.append(env.now)

        def opener():
            yield env.timeout(3.0)
            gate.open()

        env.process(waiter())
        env.process(opener())
        env.run()
        assert times == [3.0]

    def test_idempotent(self, env):
        gate = OperatorGate(env)
        gate.close()
        gate.close()
        gate.open()
        gate.open()
        assert not gate.closed


class TestWindowedSender:
    def test_local_send_bypasses_network(self, env):
        cluster = Cluster(env, num_nodes=2)
        sender = WindowedSender(env, cluster.network, src_node=0)
        queue = Store(env)

        def body():
            yield sender.send_event(0, queue, "item", 100, TransferPurpose.STREAM)

        env.process(body())
        env.run()
        assert queue.items == ("item",)
        assert cluster.network.bytes_by_purpose[TransferPurpose.STREAM].total == 0

    def test_remote_send_delivers_over_network(self, env):
        cluster = Cluster(env, num_nodes=2)
        sender = WindowedSender(env, cluster.network, src_node=0)
        queue = Store(env)

        def body():
            yield sender.send_event(1, queue, "item", 1000, TransferPurpose.STREAM)

        env.process(body())
        env.run()
        assert queue.items == ("item",)
        assert cluster.network.bytes_by_purpose[TransferPurpose.STREAM].total == 1000

    def test_delivery_order_preserved(self, env):
        cluster = Cluster(env, num_nodes=2)
        sender = WindowedSender(env, cluster.network, src_node=0, window=4)
        queue = Store(env)
        received = []

        def producer():
            for i in range(20):
                yield sender.send_event(1, queue, i, 500, TransferPurpose.STREAM)

        def consumer():
            for _ in range(20):
                item = yield queue.get()
                received.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == list(range(20))

    def test_window_limits_inflight(self, env):
        cluster = Cluster(env, num_nodes=2, bandwidth_bps=8e3)  # 1 KB/s: slow
        sender = WindowedSender(env, cluster.network, src_node=0, window=2)
        queue = Store(env)
        admitted = []

        def producer():
            for i in range(4):
                yield sender.send_event(1, queue, i, 1000, TransferPurpose.STREAM)
                admitted.append((i, env.now))

        env.process(producer())
        env.run(until=0.5)
        # First two admitted immediately; the rest blocked on the window.
        assert [i for i, _ in admitted] == [0, 1]

    def test_sends_to_different_destinations_pipeline(self, env):
        cluster = Cluster(env, num_nodes=3, bandwidth_bps=8e6, network_latency=0.0)
        sender = WindowedSender(env, cluster.network, src_node=0, window=8)
        queues = {1: Store(env), 2: Store(env)}
        deliveries = {}

        def producer():
            yield sender.send_event(1, queues[1], "a", 1_000_000, TransferPurpose.STREAM)
            yield sender.send_event(2, queues[2], "b", 1_000_000, TransferPurpose.STREAM)

        def watch(node):
            yield queues[node].get()
            deliveries[node] = env.now

        env.process(producer())
        env.process(watch(1))
        env.process(watch(2))
        env.run()
        # Both share node 0's egress (1 MB/s): serialized 1s then 2s.
        assert deliveries[1] == pytest.approx(1.0)
        assert deliveries[2] == pytest.approx(2.0)

    def test_remote_delivery_costs_three_events(self, env):
        # The window grant, the network transfer and the destination put:
        # a remote message schedules no other kernel event, and all three
        # are one re-armed object.
        cluster = Cluster(env, num_nodes=2)
        sender = WindowedSender(env, cluster.network, src_node=0)
        queue = Store(env)
        hop = sender.send_event(1, queue, "item", 1000, TransferPurpose.STREAM)
        assert sender.in_flight == 1
        env.run(until=0.0)  # the grant: the transfer is now in flight
        assert [entry[2] for entry in env._timers] == [hop]
        env.run()
        assert hop.processed
        assert env.events_processed == 3
        assert queue.items == ("item",)
        assert sender.in_flight == 0

    def test_zero_delay_remote_delivery_is_fifo(self, env):
        # Zero latency and zero bytes: every transfer fires in the instant
        # it is issued; sends past the window wait for a released slot.
        cluster = Cluster(env, num_nodes=2, network_latency=0.0)
        sender = WindowedSender(env, cluster.network, src_node=0, window=2)
        queue = Store(env)
        for i in range(5):
            sender.send_event(1, queue, i, 0, TransferPurpose.STREAM)
        env.run()
        assert env.now == 0.0
        assert env.events_processed == 5 * 3
        assert queue.items == tuple(range(5))
        assert sender.in_flight == 0


class _RecordingLogic(OperatorLogic):
    """Charges a fixed cost per batch and records what it processed."""

    def __init__(self, cost):
        self.cost = cost
        self.processed = []

    def cpu_seconds(self, batch):
        return self.cost

    def process(self, batch, state):
        self.processed.append(batch)
        return []


def _spec(logic):
    return OperatorSpec("op", logic=logic, num_executors=1, shards_per_executor=4)


def elastic_task(env, logic):
    """The single task of a started elastic executor, fed directly."""
    executor = ElasticExecutor(env, Cluster(env, num_nodes=1), _spec(logic), 0, 0)
    executor.connect([], sink_recorder=lambda batch, now: None)
    executor.start(initial_cores=1)
    (task,) = executor.tasks.values()
    return task, task.queue.put_nowait


def rc_task(env, logic):
    """The task of an RC executor; batches enter the operator's ledger
    the way :class:`RCGroup` admits them."""
    manager = RCOperatorManager(env, Cluster(env, num_nodes=1), _spec(logic))
    manager.connect([], sink_recorder=lambda batch, now: None)
    manager.bootstrap(1, nodes=[0])
    task = manager.executors[0].task

    def put(item):
        if isinstance(item, TupleBatch):
            manager.in_flight.increment()
        task.queue.put_nowait(item)

    return task, put


def each_paradigm(cost):
    """(env, task, put) for a fresh elastic task, then a fresh RC task."""
    for make in (elastic_task, rc_task):
        env = Environment()
        yield (env, *make(env, _RecordingLogic(cost)))


class TestTask:
    def test_fifo_processing(self):
        for env, task, put in each_paradigm(0.01):
            for i in range(3):
                put(batch(key=i))
            env.run(until=1.0)
            assert [b.key for b in task.owner.logic.processed] == [0, 1, 2]

    def test_label_tuple_fires_after_pending_work(self):
        for env, task, put in each_paradigm(0.1):
            drained = []
            label_event = env.event()
            label_event.callbacks.append(lambda ev: drained.append(env.now))
            put(batch())
            put(batch())
            put(LabelTuple(0, label_event))
            env.run(until=1.0)
            assert drained == [pytest.approx(0.2)]
            assert len(task.owner.logic.processed) == 2

    def test_stop_signal_ends_task(self):
        for env, task, put in each_paradigm(0.01):
            put(batch())
            put(STOP)
            put(batch())  # never processed
            env.run(until=1.0)
            assert task.stopped
            assert task.process.triggered
            assert len(task.owner.logic.processed) == 1

    def test_stop_signal_is_singleton(self):
        assert StopSignal() is STOP

    def test_busy_seconds_accumulates(self):
        for env, task, put in each_paradigm(0.25):
            put(batch())
            put(batch())
            env.run(until=1.0)
            assert task.busy_seconds == pytest.approx(0.5)

    def test_kill_returns_the_batch_handed_over_in_the_same_instant(self):
        # The put hands the batch to the idle loop's pending get; the kill
        # lands before the loop's callback runs.  The batch must come back
        # for dead-lettering, not vanish with the unhooked callback.
        for env, task, put in each_paradigm(0.01):
            env.run(until=0.5)
            handed = batch(key=3)
            put(handed)
            assert task.kill() == [handed]
            env.run(until=1.0)
            assert task.owner.logic.processed == []


class TestCrashInTheHandOffInstant:
    """A crash in the instant a daemon's get takes a batch dead-letters it."""

    def test_receiver_batch_is_counted_lost(self, env):
        logic = _RecordingLogic(0.01)
        executor = ElasticExecutor(env, Cluster(env, num_nodes=1), _spec(logic), 0, 0)
        executor.connect([], sink_recorder=lambda batch, now: None)
        executor.start(initial_cores=1)
        env.run(until=0.5)
        stats = RecoveryStats()
        executor.input_queue.put_nowait(batch(key=3))
        executor.crash_main(DeadLetterReaper(env, stats))
        env.run(until=1.0)
        assert logic.processed == []
        assert stats.batches_lost.total == 1

    def test_rc_emitter_batch_is_lost_but_settled(self, env):
        manager = RCOperatorManager(env, Cluster(env, num_nodes=1),
                                    _spec(_RecordingLogic(0.01)))
        manager.connect([], sink_recorder=lambda batch, now: None)
        manager.bootstrap(1, nodes=[0])
        executor = manager.executors[0]
        env.run(until=0.5)
        stats = RecoveryStats()
        forgotten = []
        executor._emitter_queue.put_nowait(batch(key=3))
        executor.crash(DeadLetterReaper(env, stats, on_lost=forgotten.append))
        env.run(until=1.0)
        assert stats.batches_lost.total == 1
        assert forgotten == []  # committed: already settled in the ledger


class TestRoutingTable:
    def make_task(self, env, tid=0, node=0):
        owner = ElasticExecutor(
            env, Cluster(env, num_nodes=1), _spec(_RecordingLogic(0.0)), 0, 0
        )
        return Task(env, tid, node, owner=owner)

    def test_assign_and_lookup(self, env):
        table = RoutingTable(4)
        task = self.make_task(env)
        table.register_task(task)
        table.assign(2, task)
        assert table.entry(2).task is task
        assert table.shards_of(task) == {2}
        assert table.assignment() == {2: task}

    def test_reassign_moves_between_sets(self, env):
        table = RoutingTable(4)
        task_a = self.make_task(env, 0)
        task_b = self.make_task(env, 1)
        table.register_task(task_a)
        table.register_task(task_b)
        table.assign(1, task_a)
        table.assign(1, task_b)
        assert table.shards_of(task_a) == set()
        assert table.shards_of(task_b) == {1}

    def test_assign_to_unregistered_rejected(self, env):
        table = RoutingTable(4)
        with pytest.raises(ValueError):
            table.assign(0, self.make_task(env))

    def test_unregister_with_shards_rejected(self, env):
        table = RoutingTable(4)
        task = self.make_task(env)
        table.register_task(task)
        table.assign(0, task)
        with pytest.raises(ValueError):
            table.unregister_task(task)

    def test_double_register_rejected(self, env):
        table = RoutingTable(4)
        task = self.make_task(env)
        table.register_task(task)
        with pytest.raises(ValueError):
            table.register_task(task)

    def test_buffered_items(self, env):
        table = RoutingTable(2)
        table.entry(0).buffer.append("x")
        table.entry(1).buffer.append("y")
        assert table.buffered_items() == 2

    def test_buffered_items_counter_stays_exact(self, env):
        # buffered_items() is a running counter, not a re-sum; every
        # deque mutation path must keep it consistent with an actual sum.
        table = RoutingTable(3)

        def resum():
            return sum(len(table.entry(i).buffer) for i in range(3))

        buf0, buf1, buf2 = (table.entry(i).buffer for i in range(3))
        buf0.append("a")
        buf0.extend(["b", "c"])
        buf1.appendleft("d")
        buf2.extend([])
        assert table.buffered_items() == resum() == 4
        assert buf0.popleft() == "a"
        assert buf0.pop() == "c"
        buf1.remove("d")
        assert table.buffered_items() == resum() == 1
        buf2.extend(["e", "f"])
        buf2.clear()
        buf1.clear()  # clearing an already-empty buffer must not drift
        assert table.buffered_items() == resum() == 1

    def test_pause_buffers_exist_only_for_paused_shards(self, env):
        # A buffer is made when its shard first pauses; buffered_items()
        # stays exact through the pause, the flush and a crash's drain.
        logic = _RecordingLogic(0.001)
        spec = OperatorSpec("op", logic=logic, num_executors=1, shards_per_executor=3840)
        executor = ElasticExecutor(env, Cluster(env, num_nodes=1), spec, 0, 0)
        executor.connect([], sink_recorder=lambda batch, now: None)
        executor.start(initial_cores=2)
        routing = executor.routing
        env.run(until=0.1)

        def allocated():
            return [e.shard_id for e in routing._entries if e._buffer is not None]

        assert allocated() == []
        moving, orphaned = (executor._shard_lookup[key] for key in (3, 5))
        assert moving != orphaned
        routing.entry(moving).pause()
        routing.orphan_shard(orphaned)
        assert allocated() == sorted((moving, orphaned))
        for key in (3, 5, 3, 5, 5):
            executor.input_queue.put_nowait(batch(key=key))
        env.run(until=0.2)
        assert logic.processed == []
        assert routing.buffered_items() == 5
        assert [len(routing.entry(s).buffer) for s in (moving, orphaned)] == [2, 3]

        entry = routing.entry(moving)
        env.process(executor._install(entry, entry.task))
        env.run(until=0.3)
        assert not entry.paused
        assert len(logic.processed) == 2
        assert routing.buffered_items() == 3
        assert allocated() == sorted((moving, orphaned))

        stats = RecoveryStats()
        executor.crash_main(DeadLetterReaper(env, stats))
        assert routing.buffered_items() == 0
        assert stats.batches_lost.total == 3
        assert all(e.paused and not e.buffer for e in routing._entries)

    def test_validation(self):
        with pytest.raises(ValueError):
            RoutingTable(0)
