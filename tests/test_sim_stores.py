"""Unit and property tests for Store and Resource."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import NetworkFabric
from repro.sim import Environment, Resource, SimulationError, Store, StoreFull
from repro.sim.events import spare_event


@pytest.fixture
def env():
    return Environment()


class TestStoreBasics:
    def test_put_then_get_fifo(self, env):
        store = Store(env)
        received = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        def producer():
            for item in "abc":
                yield store.put(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == ["a", "b", "c"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        times = []

        def consumer():
            item = yield store.get()
            times.append((env.now, item))

        def producer():
            yield env.timeout(2.0)
            yield store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert times == [(2.0, "late")]

    def test_capacity_blocks_producer(self, env):
        store = Store(env, capacity=1)
        trace = []

        def producer():
            yield store.put("first")
            trace.append(("put-first", env.now))
            yield store.put("second")  # blocked until consumer drains
            trace.append(("put-second", env.now))

        def consumer():
            yield env.timeout(5.0)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert trace == [("put-first", 0.0), ("put-second", 5.0)]

    def test_put_nowait_respects_capacity(self, env):
        store = Store(env, capacity=2)
        store.put_nowait(1)
        store.put_nowait(2)
        with pytest.raises(StoreFull):
            store.put_nowait(3)

    def test_len_and_items(self, env):
        store = Store(env)
        store.put_nowait("x")
        store.put_nowait("y")
        assert len(store) == 2
        assert store.items == ("x", "y")

    def test_pending_puts_counts_blocked_producers(self, env):
        store = Store(env, capacity=1)
        store.put("a")
        store.put("b")
        store.put("c")
        env.run()
        assert len(store) == 1
        assert store.pending_puts == 2

    def test_zero_capacity_rejected(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

    def test_cancel_withdraws_pending_get(self, env):
        store = Store(env)
        first = store.get()
        second = store.get()
        assert store.cancel(first)
        store.put_nowait("x")
        env.run()
        # The cancelled waiter must not consume the item...
        assert not first.triggered
        # ...the next waiter in line gets it instead.
        assert second.triggered and second.value == "x"

    def test_cancel_withdraws_pending_put(self, env):
        store = Store(env, capacity=1)
        store.put_nowait("a")
        blocked = store.put("b")
        assert store.cancel(blocked)
        taken = store.get()
        env.run()
        assert taken.value == "a"
        # The cancelled put never lands: the store drains empty.
        assert len(store) == 0 and store.pending_puts == 0
        assert not blocked.triggered

    def test_cancel_of_foreign_event_is_ignored(self, env):
        store = Store(env)
        other = Store(env)
        pending = other.get()
        assert not store.cancel(pending)
        assert store.cancel(pending) is False  # idempotent on miss
        assert other.cancel(pending)  # still queued where it belongs

    def test_drain_admits_blocked_putters(self, env):
        store = Store(env, capacity=2)
        store.put_nowait(1)
        store.put_nowait(2)
        store.put(3)
        store.put(4)
        assert store.pending_puts == 2
        drained = store.drain()
        env.run()
        assert drained == [1, 2]
        # Both previously blocked producers completed into the freed slots.
        assert store.pending_puts == 0
        assert store.items == (3, 4)

    def test_put_nowait_at_exact_capacity(self, env):
        store = Store(env, capacity=3)
        for item in (1, 2, 3):
            store.put_nowait(item)
        assert len(store) == 3
        with pytest.raises(StoreFull):
            store.put_nowait(4)
        # Failed put_nowait must not corrupt the buffer.
        assert store.items == (1, 2, 3)
        # Freeing exactly one slot re-admits exactly one item.
        first = store.get()
        env.run()
        assert first.value == 1
        store.put_nowait(4)
        assert store.items == (2, 3, 4)

    def test_put_nowait_hands_item_to_blocked_getter(self, env):
        store = Store(env, capacity=1)
        waiter = store.get()
        store.put_nowait("direct")
        env.run()
        # The item went straight to the waiter, never through the buffer.
        assert waiter.value == "direct"
        assert len(store) == 0

    def test_simultaneous_wakeups_preserve_fifo_fairness(self, env):
        # Several getters blocked, then a burst of puts in the same
        # instant: waiters must be served strictly in arrival order, and
        # each wakeup fires before any later put's wakeup (no overtaking).
        store = Store(env, capacity=2)
        order = []

        def consumer(tag):
            item = yield store.get()
            order.append((tag, item, env.now))

        for tag in range(4):
            env.process(consumer(tag))

        def producer():
            yield env.timeout(1.0)
            for item in "abcd":
                yield store.put(item)

        env.process(producer())
        env.run()
        assert order == [
            (0, "a", 1.0),
            (1, "b", 1.0),
            (2, "c", 1.0),
            (3, "d", 1.0),
        ]

    def test_waiting_gets_served_in_order(self, env):
        store = Store(env)
        received = []

        def consumer(tag):
            item = yield store.get()
            received.append((tag, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1.0)
            yield store.put("x")
            yield store.put("y")

        env.process(producer())
        env.run()
        assert received == [("first", "x"), ("second", "y")]


class TestStoreProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        items=st.lists(st.integers(), min_size=0, max_size=40),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def test_fifo_order_preserved_under_any_capacity(self, items, capacity):
        env = Environment()
        store = Store(env, capacity=capacity)
        received = []

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            for _ in items:
                value = yield store.get()
                received.append(value)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == items

    @settings(max_examples=50, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6),
    )
    def test_multiple_producers_nothing_lost(self, counts):
        env = Environment()
        store = Store(env, capacity=3)
        total = sum(counts)
        received = []

        def producer(tag, n):
            for i in range(n):
                yield store.put((tag, i))

        def consumer():
            for _ in range(total):
                value = yield store.get()
                received.append(value)

        for tag, n in enumerate(counts):
            env.process(producer(tag, n))
        env.process(consumer())
        env.run()
        assert len(received) == total
        assert len(set(received)) == total
        # Per-producer order is preserved even when interleaved.
        for tag, n in enumerate(counts):
            seq = [i for t, i in received if t == tag]
            assert seq == list(range(n))


class TestResource:
    def test_grants_up_to_capacity(self, env):
        resource = Resource(env, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert resource.in_use == 2
        assert resource.queued == 1

    def test_release_hands_to_waiter(self, env):
        resource = Resource(env, capacity=1)
        resource.request()
        waiter = resource.request()
        resource.release()
        assert waiter.triggered
        assert resource.in_use == 1

    def test_release_without_request_raises(self, env):
        resource = Resource(env)
        with pytest.raises(SimulationError):
            resource.release()

    def test_serializes_critical_section(self, env):
        resource = Resource(env, capacity=1)
        spans = []

        def worker(tag, hold):
            yield resource.request()
            start = env.now
            yield env.timeout(hold)
            resource.release()
            spans.append((tag, start, env.now))

        env.process(worker("a", 2.0))
        env.process(worker("b", 3.0))
        env.run()
        assert spans == [("a", 0.0, 2.0), ("b", 2.0, 5.0)]


class _Agent:
    """A callback loop running a script of store/resource operations.

    ``arm`` selects the form: the arm forms on events the agent owns
    (one per kind, re-armed), or the allocating ``get``/``put``/
    ``request`` with the callback appended.  Every processed event is
    traced as ``(time, agent, step, value)``.
    """

    def __init__(self, env, store, resource, name, ops, trace, arm):
        self.env = env
        self.store = store
        self.resource = resource
        self.name = name
        self.ops = ops
        self.trace = trace
        self.arm = arm
        self.step = 0
        self.held = 0
        self.events = {kind: spare_event(env) for kind in ("get", "put", "req", "wake")}
        self.resume()

    def resume(self, event=None):
        env = self.env
        if event is not None:
            self.trace.append((env.now, self.name, self.step - 1, event.value))
        while self.step < len(self.ops):
            kind, arg = self.ops[self.step]
            self.step += 1
            if kind == "rel":
                if self.held:
                    self.held -= 1
                    self.resource.release()
                continue
            if kind == "req":
                self.held += 1
            if not self.arm:
                if kind == "get":
                    event = self.store.get()
                elif kind == "put":
                    event = self.store.put(arg)
                elif kind == "req":
                    event = self.resource.request()
                else:
                    event = env.timeout(arg)
                event.callbacks.append(self.resume)
            elif kind == "get":
                self.store.arm_get(self.events["get"], self.resume)
            elif kind == "put":
                self.store.arm_put(self.events["put"], arg, self.resume)
            elif kind == "req":
                self.resource.arm_request(self.events["req"], self.resume)
            else:
                env.arm_at(env.now + arg, self.events["wake"], self.resume)
            return


_OPS = st.one_of(
    st.tuples(st.just("get"), st.none()),
    st.tuples(st.just("put"), st.integers(0, 99)),
    st.tuples(st.just("req"), st.none()),
    st.tuples(st.just("rel"), st.none()),
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
)


class TestArmForms:
    """The arm forms are the allocating forms on a caller-owned event."""

    @staticmethod
    def _run(scripts, capacity, slots, arm):
        env = Environment()
        store = Store(env, capacity=capacity)
        resource = Resource(env, capacity=slots)
        trace = []
        for name, ops in enumerate(scripts):
            _Agent(env, store, resource, name, ops, trace, arm)
        env.run()
        return trace, env.events_processed, store.items, resource.in_use

    @settings(max_examples=150, deadline=None)
    @given(
        scripts=st.lists(st.lists(_OPS, max_size=12), min_size=1, max_size=5),
        capacity=st.integers(min_value=1, max_value=3),
        slots=st.integers(min_value=1, max_value=2),
    )
    def test_arm_forms_trace_like_allocating_forms(self, scripts, capacity, slots):
        # Small stores and one or two slots: puts block on a full store,
        # gets on an empty one and requests on a full resource.
        allocating = self._run(scripts, capacity, slots, arm=False)
        armed = self._run(scripts, capacity, slots, arm=True)
        assert armed == allocating

    def test_arming_a_queued_event_raises(self, env):
        store = Store(env, capacity=1)
        event = spare_event(env)
        store.arm_put(event, "a")  # accepted: queued on the ready deque
        for arm in (
            lambda: store.arm_put(event, "b"),
            lambda: store.arm_get(event),
            lambda: Resource(env).arm_request(event),
            lambda: env.arm_at(1.0, event, print),
            lambda: NetworkFabric(env, 2).transfer(0, 1, 10.0, event=event),
        ):
            with pytest.raises(SimulationError, match="still queued or pending"):
                arm()
        env.run()
        assert event.processed
        store.arm_get(event)  # processed: may be re-armed
        env.run()
        assert event.value == "a"

    def test_arm_at_clears_what_the_event_last_carried(self, env):
        store = Store(env)
        store.put("item")
        event = store.arm_get(spare_event(env))
        env.run()
        assert event.value == "item"
        seen = []
        env.arm_at(2.0, event, lambda fired: seen.append((env.now, fired.value)))
        env.run()
        assert seen == [(2.0, None)] and event.ok

    def test_arming_a_pending_event_raises(self, env):
        store = Store(env, capacity=1)
        getter = store.arm_get(spare_event(env))  # empty store: pending
        with pytest.raises(SimulationError):
            store.arm_get(getter)
        resource = Resource(env, capacity=1)
        resource.request()
        waiter = resource.arm_request(spare_event(env))  # no slot: pending
        with pytest.raises(SimulationError):
            resource.arm_request(waiter)
        assert resource.cancel(waiter)
        assert resource.queued == 0
        assert not resource.cancel(waiter)

    def test_fresh_events_from_allocating_forms_cannot_be_armed(self, env):
        # A fresh event is pending with an empty callbacks list, not
        # processed: only spare_event() makes an armable event.
        with pytest.raises(SimulationError):
            Store(env).arm_get(env.event())
