"""Unit tests for the discrete-event kernel: events, clock, processes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Environment,
    Event,
    ProcessCrash,
    SimulationError,
)


@pytest.fixture
def env():
    return Environment()


def bare(env, value, sink):
    # A pre-triggered event that has NOT self-scheduled — the shape
    # push_at/push_ready exist for (compiled pipelines build these).
    event = Event.__new__(Event)
    event.env = env
    event.callbacks = [lambda e: sink.append(e.value)]
    event._ok = True
    event._value = value
    return event


class TestEnvironment:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_clock_starts_at_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, env):
        env.timeout(3.5)
        env.run()
        assert env.now == 3.5

    def test_run_until_leaves_clock_at_until(self, env):
        env.timeout(1.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_does_not_process_later_events(self, env):
        fired = []
        env.timeout(5.0).callbacks.append(lambda ev: fired.append(5))
        env.run(until=2.0)
        assert fired == []

    def test_run_until_processes_events_at_exactly_until(self, env):
        fired = []
        env.timeout(2.0).callbacks.append(lambda ev: fired.append(2))
        env.run(until=2.0)
        assert fired == [2]

    def test_run_until_past_raises(self, env):
        env.timeout(1.0)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=0.5)

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(4.0)
        env.timeout(2.0)
        assert env.peek() == 2.0

    def test_equal_time_events_fire_in_schedule_order(self, env):
        order = []
        for tag in range(5):
            event = env.timeout(1.0, value=tag)
            event.callbacks.append(lambda ev: order.append(ev.value))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_environment_push_at(self, env):
        order = []
        env.push_at(3.0, bare(env, "late", order))
        env.push_at(1.0, bare(env, "soon", order))
        env.push_at(0.0, bare(env, "now", order))  # time == now: ready-deque path
        env.push_ready(bare(env, "also-now", order))
        env.run()
        assert order == ["now", "also-now", "soon", "late"]
        assert env.now == 3.0
        with pytest.raises(SimulationError):
            env.push_at(1.0, bare(env, "past", order))

    def test_same_time_timers_are_fifo(self, env):
        # Equal times leave the timer queue in push order — the
        # determinism guarantee, at a size where heap reshuffling shows.
        order = []
        for seq in range(100):
            env.push_at(5.0, bare(env, seq, order))
        env.run()
        assert order == list(range(100))

    def test_far_future_timers(self, env):
        fired = []
        for delay in (2e6, 1e6):
            env.timeout(delay).callbacks.append(lambda ev: fired.append(env.now))
        env.run()
        assert fired == [1e6, 2e6]
        assert env.now == 2e6

    def test_timer_due_now_with_smaller_seq_beats_ready_head(self, env):
        # Both timers are due at t=1; the first one's callback queues a
        # zero-delay event.  The second timer was scheduled earlier, so
        # it runs before that ready-deque entry.
        order = []
        first = env.timeout(1.0, value="timer-1")
        second = env.timeout(1.0, value="timer-2")
        second.callbacks.append(lambda ev: order.append(ev.value))

        def on_first(ev):
            order.append(ev.value)
            ready = env.event()
            ready.callbacks.append(lambda e: order.append("ready"))
            ready.succeed()

        first.callbacks.append(on_first)
        env.run()
        assert order == ["timer-1", "timer-2", "ready"]

    @settings(max_examples=100, deadline=None)
    @given(
        fanout=st.lists(
            st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]), max_size=3),
            min_size=1,
            max_size=40,
        )
    )
    def test_processing_follows_global_time_seq_order(self, fanout):
        """Ready deque + timer heap process in strict (time, seq) order.

        Each processed event schedules ``fanout[i]`` children (zero and
        positive delays mixed), so same-time ties between the two queues
        are frequent.  A new event always sorts after the one being
        processed, so the processed keys must be strictly increasing.
        """
        env = Environment()
        processed = []
        scheduled = []

        def spawn(delay):
            key = (env.now + delay, len(scheduled))
            scheduled.append(key)
            event = env.timeout(delay, value=key)
            event.callbacks.append(on_event)

        def on_event(ev):
            processed.append(ev.value)
            if len(processed) <= len(fanout):
                for delay in fanout[len(processed) - 1]:
                    spawn(delay)

        spawn(0.0)
        env.run()
        assert processed == sorted(scheduled)
        assert all(a < b for a, b in zip(processed, processed[1:]))

    def test_identical_runs_are_event_for_event_identical(self):
        """End-to-end determinism: a small elastic run, twice."""
        from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig

        def run_once():
            workload = MicroBenchmarkWorkload(
                rate=2000.0, num_keys=64, skew=0.8, omega=4.0, batch_size=10,
                seed=3,
            )
            topology = workload.build_topology(
                executors_per_operator=2, shards_per_executor=4
            )
            config = SystemConfig(
                paradigm=Paradigm("elasticutor"), num_nodes=4, cores_per_node=4
            )
            system = StreamSystem(topology, workload, config)
            result = system.run(duration=8.0, warmup=2.0)
            return (
                system.env.events_processed,
                result.processed_tuples,
                round(result.latency["p99"], 9),
            )

        assert run_once() == run_once()


class TestEvent:
    def test_initially_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed("payload")
        assert seen == []  # triggered but not yet processed
        env.run()
        assert seen == ["payload"]


class TestProcess:
    def test_process_waits_on_timeouts(self, env):
        trace = []

        def body():
            trace.append(env.now)
            yield env.timeout(1.0)
            trace.append(env.now)
            yield env.timeout(2.0)
            trace.append(env.now)

        env.process(body())
        env.run()
        assert trace == [0.0, 1.0, 3.0]

    def test_process_receives_event_value(self, env):
        got = []

        def body():
            value = yield env.timeout(1.0, value="hello")
            got.append(value)

        env.process(body())
        env.run()
        assert got == ["hello"]

    def test_process_is_waitable_event(self, env):
        def child():
            yield env.timeout(2.0)
            return "done"

        def parent():
            result = yield env.process(child())
            assert result == "done"
            assert env.now == 2.0

        env.process(parent())
        env.run()

    def test_yielding_already_processed_event_continues_immediately(self, env):
        def body():
            timeout = env.timeout(1.0, value="early")
            yield env.timeout(5.0)
            value = yield timeout  # fired long ago
            assert value == "early"
            assert env.now == 5.0

        env.process(body())
        env.run()

    def test_failed_event_throws_into_process(self, env):
        caught = []

        def body():
            event = env.event()
            event.fail(ValueError("boom"))
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        env.process(body())
        env.run()
        assert caught == ["boom"]

    def test_unhandled_crash_propagates(self, env):
        def body():
            yield env.timeout(1.0)
            raise RuntimeError("dead")

        env.process(body())
        with pytest.raises(ProcessCrash):
            env.run()

    def test_crash_delivered_to_waiting_parent(self, env):
        def child():
            yield env.timeout(1.0)
            raise RuntimeError("child died")

        def parent():
            proc = env.process(child())
            yield env.timeout(0.5)  # ensure parent is waiting when child dies
            try:
                yield proc
            except RuntimeError as exc:
                return str(exc)

        parent_proc = env.process(parent())
        env.run()
        assert parent_proc.value == "child died"

    def test_yielding_non_event_raises(self, env):
        def body():
            yield 42

        env.process(body())
        with pytest.raises(SimulationError):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_is_alive(self, env):
        def body():
            yield env.timeout(1.0)

        proc = env.process(body())
        assert proc.is_alive
        env.run()
        assert not proc.is_alive


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def body():
            yield env.all_of([env.timeout(1.0), env.timeout(3.0), env.timeout(2.0)])
            assert env.now == 3.0

        env.process(body())
        env.run()

    def test_any_of_fires_on_first(self, env):
        def body():
            yield env.any_of([env.timeout(5.0), env.timeout(1.0)])
            assert env.now == 1.0

        env.process(body())
        env.run()

    def test_all_of_empty_fires_immediately(self, env):
        def body():
            yield env.all_of([])
            assert env.now == 0.0

        env.process(body())
        env.run()

    def test_all_of_collects_values(self, env):
        events = [env.timeout(1.0, value="a"), env.timeout(2.0, value="b")]

        def body():
            values = yield env.all_of(events)
            assert [values[event] for event in events] == ["a", "b"]

        env.process(body())
        env.run()

    def test_all_of_fails_on_child_failure(self, env):
        def body():
            failing = env.event()
            failing.fail(KeyError("gone"))
            try:
                yield env.all_of([env.timeout(10.0), failing])
            except KeyError:
                return "failed"

        proc = env.process(body())
        env.run()
        assert proc.value == "failed"
