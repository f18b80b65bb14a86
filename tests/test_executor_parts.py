"""Unit tests for executor building blocks: gate, sender, task, routing."""

import pytest

from repro.cluster import Cluster
from repro.cluster.network import TransferPurpose
from repro.executors.channels import WindowedSender
from repro.executors.gate import OperatorGate
from repro.executors.routing import RoutingTable
from repro.executors.task import STOP, StopSignal, Task
from repro.sim import Environment, Store
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


class _FakeOwner:
    """Minimal executor stand-in for Task tests."""

    def __init__(self, env, cost=0.01):
        self.env = env
        self.cost = cost
        self.processed = []

    def process_batch(self, task, item):
        yield self.env.timeout(self.cost)
        self.processed.append(item)


class TestTask:
    def test_fifo_processing(self, env):
        owner = _FakeOwner(env)
        task = Task(env, 0, node_id=0, owner=owner)
        for i in range(3):
            task.queue.put_nowait(batch(key=i))
        env.run(until=1.0)
        assert [b.key for b in owner.processed] == [0, 1, 2]

    def test_label_tuple_fires_after_pending_work(self, env):
        owner = _FakeOwner(env, cost=0.1)
        task = Task(env, 0, node_id=0, owner=owner)
        drained = []
        label_event = env.event()
        label_event.callbacks.append(lambda ev: drained.append(env.now))
        task.queue.put_nowait(batch())
        task.queue.put_nowait(batch())
        task.queue.put_nowait(LabelTuple(0, label_event))
        env.run(until=1.0)
        assert drained == [pytest.approx(0.2)]
        assert len(owner.processed) == 2

    def test_stop_signal_ends_task(self, env):
        owner = _FakeOwner(env)
        task = Task(env, 0, node_id=0, owner=owner)
        task.queue.put_nowait(batch())
        task.queue.put_nowait(STOP)
        task.queue.put_nowait(batch())  # never processed
        env.run(until=1.0)
        assert task.stopped
        assert len(owner.processed) == 1

    def test_stop_signal_is_singleton(self):
        assert StopSignal() is STOP

    def test_busy_seconds_accumulates(self, env):
        owner = _FakeOwner(env, cost=0.25)
        task = Task(env, 0, node_id=0, owner=owner)
        task.queue.put_nowait(batch())
        task.queue.put_nowait(batch())
        env.run(until=1.0)
        assert task.busy_seconds == pytest.approx(0.5)


class TestRoutingTable:
    def make_task(self, env, tid=0, node=0):
        return Task(env, tid, node, owner=_FakeOwner(env))

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

    def test_validation(self):
        with pytest.raises(ValueError):
            RoutingTable(0)
