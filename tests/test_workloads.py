"""Unit tests for the workload generators."""

import hashlib
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.sim import Environment
from repro.workloads import (
    BurstEvent,
    HotspotBurst,
    KeyShuffler,
    MicroBenchmarkWorkload,
    SSEWorkload,
    ZipfKeyDistribution,
)
from repro.workloads.join import WindowedJoinWorkload


class TestZipfKeyDistribution:
    def test_probabilities_sum_to_one(self):
        dist = ZipfKeyDistribution(100, skew=0.5, seed=1)
        total = sum(dist.probability(k) for k in range(100))
        assert total == pytest.approx(1.0)

    def test_skew_shapes_distribution(self):
        flat = ZipfKeyDistribution(100, skew=0.0, seed=1)
        skewed = ZipfKeyDistribution(100, skew=1.0, seed=1)
        hottest_flat = flat.probability(flat.hottest_keys(1)[0])
        hottest_skewed = skewed.probability(skewed.hottest_keys(1)[0])
        assert hottest_skewed > 5 * hottest_flat
        assert hottest_flat == pytest.approx(0.01)

    def test_sample_respects_distribution(self):
        dist = ZipfKeyDistribution(10, skew=1.0, seed=3)
        samples = dist.sample(20_000)
        hottest = dist.hottest_keys(1)[0]
        coldest = dist.hottest_keys(10)[-1]
        assert samples.count(hottest) > 3 * samples.count(coldest)

    def test_shuffle_moves_hot_keys(self):
        dist = ZipfKeyDistribution(1000, skew=1.0, seed=5)
        before = dist.hottest_keys(10)
        dist.shuffle()
        after = dist.hottest_keys(10)
        assert before != after
        assert dist.shuffle_count == 1

    def test_shuffle_preserves_shape(self):
        dist = ZipfKeyDistribution(50, skew=0.8, seed=2)
        top_before = dist.probability(dist.hottest_keys(1)[0])
        dist.shuffle()
        top_after = dist.probability(dist.hottest_keys(1)[0])
        assert top_before == pytest.approx(top_after)

    def test_deterministic_given_seed(self):
        a = ZipfKeyDistribution(100, seed=9).sample(50)
        b = ZipfKeyDistribution(100, seed=9).sample(50)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfKeyDistribution(0)
        with pytest.raises(ValueError):
            ZipfKeyDistribution(10, skew=-1)

    def test_probabilities_invariant_across_shuffles(self):
        # Regression: probability() went through list.index (O(n) per
        # lookup); it now reads an inverse rank map maintained by
        # shuffle().  A shuffle permutes which key has which frequency
        # but must leave the multiset of probabilities untouched.
        dist = ZipfKeyDistribution(64, skew=0.7, seed=11)
        before = sorted(dist.probability(k) for k in range(64))
        for _ in range(3):
            dist.shuffle()
            after = sorted(dist.probability(k) for k in range(64))
            assert after == before
        assert sum(before) == pytest.approx(1.0)

    def test_probability_consistent_with_rank_order(self):
        dist = ZipfKeyDistribution(32, skew=0.9, seed=4)
        for _ in range(2):
            dist.shuffle()
            probabilities = [dist.probability(k) for k in dist.hottest_keys(32)]
            assert probabilities == sorted(probabilities, reverse=True)

    def test_probability_rejects_out_of_range_keys(self):
        dist = ZipfKeyDistribution(10, skew=0.5, seed=0)
        with pytest.raises(ValueError):
            dist.probability(-1)
        with pytest.raises(ValueError):
            dist.probability(10)


class TestKeyShuffler:
    def test_applies_omega_shuffles_per_minute(self):
        env = Environment()
        dist = ZipfKeyDistribution(100, seed=1)
        shuffler = KeyShuffler(env, dist, shuffles_per_minute=4.0)
        shuffler.start()
        env.run(until=60.0)
        assert dist.shuffle_count == 4
        assert shuffler.shuffle_times == [15.0, 30.0, 45.0, 60.0]

    def test_omega_zero_never_shuffles(self):
        env = Environment()
        dist = ZipfKeyDistribution(100, seed=1)
        KeyShuffler(env, dist, shuffles_per_minute=0.0).start()
        env.run(until=120.0)
        assert dist.shuffle_count == 0

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            KeyShuffler(env, ZipfKeyDistribution(10), shuffles_per_minute=-1)


class TestMicroBenchmarkWorkload:
    def test_schedule_rate(self):
        env = Environment()
        workload = MicroBenchmarkWorkload(rate=10_000, batch_size=20, seed=1)
        total = 0
        for emit_time, batch in workload.schedule(env, 0, 1, duration=5.0):
            assert batch.created_at == emit_time
            total += batch.count
        assert total == pytest.approx(50_000, rel=0.01)

    def test_rate_split_across_instances(self):
        env = Environment()
        workload = MicroBenchmarkWorkload(rate=10_000, batch_size=20, seed=1)
        totals = []
        for i in range(4):
            totals.append(
                sum(b.count for _, b in workload.schedule(env, i, 4, duration=2.0))
            )
        for total in totals:
            assert total == pytest.approx(5_000, rel=0.02)

    def test_batches_carry_workload_parameters(self):
        env = Environment()
        workload = MicroBenchmarkWorkload(
            rate=1000, cost_per_tuple=2e-3, tuple_bytes=512, batch_size=10, seed=1
        )
        _, batch = next(iter(workload.schedule(env, 0, 1, duration=1.0)))
        assert batch.cpu_cost == 2e-3
        assert batch.size_bytes == 512
        assert batch.count == 10

    def test_topology_defaults(self):
        workload = MicroBenchmarkWorkload()
        topology = workload.build_topology()
        assert topology.sources() == ["generator"]
        assert topology.sinks() == ["calculator"]
        calc = topology.spec("calculator")
        assert calc.num_executors == 32
        assert calc.shards_per_executor == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBenchmarkWorkload(rate=0)
        with pytest.raises(ValueError):
            MicroBenchmarkWorkload(batch_size=0)
        env = Environment()
        with pytest.raises(ValueError):
            next(MicroBenchmarkWorkload().schedule(env, 5, 2))


class TestSSEWorkload:
    def test_schedule_rate(self):
        env = Environment()
        workload = SSEWorkload(rate=5_000, num_stocks=50, batch_size=10, seed=1)
        total = sum(b.count for _, b in workload.schedule(env, 0, 1, duration=5.0))
        assert total == pytest.approx(25_000, rel=0.02)

    def test_popular_stocks_get_more_orders(self):
        env = Environment()
        workload = SSEWorkload(rate=20_000, num_stocks=50, batch_size=10, seed=1)
        counts = {}
        for _, batch in workload.schedule(env, 0, 1, duration=5.0):
            counts[batch.key] = counts.get(batch.key, 0) + batch.count
        # Stock ids are popularity ranks: 0 is hottest.
        assert counts.get(0, 0) > counts.get(49, 0)

    def test_rates_fluctuate_over_time(self):
        workload = SSEWorkload(rate=10_000, num_stocks=20, seed=3)
        rates = [workload.stock_rate(0, tick) for tick in range(0, 3000, 300)]
        assert max(rates) > 1.5 * min(rates)  # bursts + drift

    def test_out_of_range_queries_raise(self):
        workload = SSEWorkload(rate=10_000, num_stocks=20, seed=3)
        workload.stock_weights(2)
        with pytest.raises(ValueError, match="tick index must be >= 0, got -1"):
            workload.stock_weights(-1)
        with pytest.raises(ValueError, match="tick index must be >= 0, got -1"):
            workload.stock_rate(0, -1)
        for stock in (-1, 20):
            with pytest.raises(ValueError, match=rf"stock must lie in 0..19, got {stock}"):
                workload.stock_rate(stock, 0)
        assert workload.stock_rate(19, 0) > 0

    def test_real_payload_mode_generates_orders(self):
        env = Environment()
        workload = SSEWorkload(rate=1000, num_stocks=10, real_payloads=True, seed=1)
        _, batch = next(iter(workload.schedule(env, 0, 1, duration=1.0)))
        assert batch.payload is not None
        assert len(batch.payload) == batch.count
        assert all(order.stock_id == batch.key for order in batch.payload)

    def test_arrival_series_tracks_generation(self):
        env = Environment()
        workload = SSEWorkload(rate=10_000, num_stocks=20, batch_size=10, seed=1)
        for _ in workload.schedule(env, 0, 1, duration=10.0):
            pass
        series = workload.arrival_series([0, 1], window_ticks=10)
        assert len(series[0]) >= 9
        total_generated = sum(
            int(counts.sum()) for counts in workload.arrival_counts.values()
        )
        assert total_generated == pytest.approx(workload.generated_tuples)
        assert sum(rate for _, rate in series[0]) > 0
        assert sum(rate for _, rate in series[1]) > 0

    def test_topology_structure(self):
        workload = SSEWorkload(num_stocks=100)
        topology = workload.build_topology(executors_per_operator=8)
        assert topology.sources() == ["orders"]
        assert topology.downstream("orders") == ["transactor"]
        assert len(topology.downstream("transactor")) == 11
        assert len(topology.sinks()) == 11

    ALARMS = {"price_alarm": 1.05, "circuit_breaker": 1.10, "volume_spike": 1.02}

    def test_alarm_operators_share_one_price_snapshot(self):
        # The three alarms share the workload's read-only initial prices,
        # not a copy; orders walk prices elsewhere and leave them alone.
        workload = SSEWorkload(num_stocks=100_000, real_payloads=True, seed=4)
        initial = workload._initial_price
        reference = initial.copy()
        assert not initial.flags.writeable
        topology = workload.build_topology(
            executors_per_operator=4, shards_per_executor=4
        )
        logics = [topology.spec(name).logic for name in self.ALARMS]
        for logic in logics:
            assert np.shares_memory(logic.thresholds, initial)
        for _ in workload.schedule(Environment(), 0, 1, duration=2.0):
            pass
        walked = workload._walked_price
        assert len(walked) > 1000
        assert all(walked[stock] != reference[stock] for stock in walked)
        for logic, factor in zip(logics, self.ALARMS.values()):
            assert logic.factor == factor
            # The per-lookup product is the pre-scaled array, bit for bit.
            effective = np.array([float(price) * factor for price in logic.thresholds])
            assert effective.tobytes() == (reference * factor).tobytes()

    @pytest.mark.parametrize("window_ticks", [0, -1, 2.5, float("nan")])
    def test_arrival_series_rejects_malformed_window(self, window_ticks):
        workload = SSEWorkload(rate=10_000, num_stocks=20, seed=1)
        for _ in workload.schedule(Environment(), 0, 1, duration=1.0):
            pass
        with pytest.raises(ValueError, match="^window_ticks must be "):
            workload.arrival_series([0], window_ticks=window_ticks)

    def test_validation(self):
        with pytest.raises(ValueError):
            SSEWorkload(rate=0)
        with pytest.raises(ValueError):
            SSEWorkload(num_stocks=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("burst_decay", 0.0),
            ("burst_decay", 1.5),
            ("burst_probability", -0.1),
            ("drift_sigma", -0.01),
            ("burst_magnitude", 0.0),
            ("burst_magnitude", -2.0),
            ("popularity_skew", -0.5),
            ("match_ratio", -0.1),
            ("match_ratio", 1.1),
        ],
    )
    def test_rejects_out_of_range_rate_parameters(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SSEWorkload(**{name: value})

    def test_accepts_range_edges(self):
        SSEWorkload(
            burst_decay=1.0,
            burst_probability=0.0,
            drift_sigma=0.0,
            popularity_skew=0.0,
            match_ratio=1.0,
        )
        SSEWorkload(match_ratio=0.0)


def _stream(workload, num_instances=3, duration=30.0):
    """(created, key, count) of every batch, instances consumed round-robin."""
    env = Environment()
    live = [
        workload.schedule(env, i, num_instances, duration=duration)
        for i in range(num_instances)
    ]
    while live:
        for generator in list(live):
            try:
                created, batch = next(generator)
            except StopIteration:
                live.remove(generator)
                continue
            yield created, batch.key, batch.count


class TestSSEStreamIdentity:
    """Golden digests of the order stream, pinned before the sparse rewrite.

    The per-tick path keeps burst state sparse, shares one cumulative
    table per tick and recycles its buffers; none of that may change a
    single stock id or creation time, nor the RNG consumption."""

    CASES = [
        (dict(num_stocks=500, seed=3), "64aa1d932d73c74b"),
        (dict(num_stocks=300, drift_sigma=0.0, seed=9), "cffbda54fbab85fd"),
        (dict(num_stocks=300, burst_probability=0.0, seed=11), "6b9042ce841d6f19"),
        (
            dict(num_stocks=5000, burst_probability=2.0, burst_decay=0.5, seed=13),
            "cc73dbe0dde3e9c5",
        ),
        (dict(num_stocks=1000, weights_window=2, seed=17), "cbeab33c3ed28752"),
    ]

    # The ids keep the numbers the digests were pinned under.
    @pytest.mark.parametrize(
        "params, expected", CASES, ids=[f"case{i}" for i in (0, 2, 3, 4, 5)]
    )
    def test_stream_digest(self, params, expected):
        workload = SSEWorkload(rate=20_000, batch_size=10, **params)
        digest = hashlib.sha256()
        for record in _stream(workload):
            digest.update(repr(record).encode())
        assert digest.hexdigest()[:16] == expected


class _DenseMarket:
    """The dense market of the generator before its bursts went sparse:
    a per-stock burst array beside the ids of the bursting stocks, and
    that generator's ``_step`` copied verbatim.  Built from a fresh
    workload, so its RNG and drift start where the workload's do."""

    def __init__(self, **params):
        workload = SSEWorkload(**params)
        self.num_stocks = workload.num_stocks
        self.drift_sigma = workload.drift_sigma
        self.tick = workload.tick
        self.burst_decay = workload.burst_decay
        self.burst_probability = workload.burst_probability
        self.burst_magnitude = workload.burst_magnitude
        self.popularity = workload.popularity
        self._rng = workload._rng
        self._multiplier = workload._multiplier
        self._burst = np.zeros(workload.num_stocks)
        self._bursting = np.empty(0, dtype=np.intp)
        self._onset_mask = np.empty(workload.num_stocks, dtype=bool)

    def _step(self, table):
        rng = self._rng
        n = self.num_stocks
        sigma = self.drift_sigma * math.sqrt(self.tick)
        decay_per_tick = self.burst_decay ** self.tick
        floor = 0.05 * decay_per_tick
        onset_probability = self.burst_probability * self.tick
        popularity = self.popularity
        multiplier = self._multiplier
        burst = self._burst
        draws = table
        if sigma > 0:
            rng.standard_normal(n, out=draws)
            draws *= sigma
            np.exp(draws, out=draws)
            multiplier *= draws
            np.clip(multiplier, 0.2, 5.0, out=multiplier)
        bursting = self._bursting
        decayed = burst[bursting] * decay_per_tick
        alive = decayed > floor
        burst[bursting] = np.where(alive, decayed, 0.0)
        bursting = bursting[alive]
        rng.random(n, out=draws)
        onset = np.flatnonzero(np.less(draws, onset_probability, out=self._onset_mask))
        rng.random(n, out=draws)
        fresh = onset[burst[onset] == 0.0]
        burst[onset] = self.burst_magnitude * (0.5 + draws[onset])
        bursting = np.concatenate((bursting, fresh))
        self._bursting = bursting
        np.multiply(popularity, multiplier, out=table)
        table[bursting] *= 1.0 + burst[bursting]
        np.cumsum(table, out=table)


class TestSSESparseBursts:
    """The sparse burst state reproduces the dense market tick by tick."""

    @pytest.mark.parametrize("params, ticks", [
        (dict(num_stocks=5000, burst_probability=2.0, burst_decay=0.5, seed=13), 200),
        (dict(num_stocks=2000, drift_sigma=0.0, seed=9), 200),
        (dict(num_stocks=2000, burst_probability=0.0, seed=11), 50),
        (dict(num_stocks=3000, weights_window=2, seed=17), 200),
        (dict(num_stocks=1_000_000, seed=7), 20),
    ], ids=["frequent-onsets", "no-drift", "no-bursts", "window-2", "million-stocks"])
    def test_matches_dense_reference(self, params, ticks):
        sparse = SSEWorkload(**params)
        dense = _DenseMarket(**params)
        expected = np.empty(sparse.num_stocks)
        for tick in range(ticks):
            dense._step(expected)
            assert np.array_equal(sparse._table(tick), expected)
            assert sparse._rng.bit_generator.state == dense._rng.bit_generator.state
            # Only the bursting stocks are held, sorted, with their factors.
            assert np.array_equal(sparse._bursting, np.flatnonzero(dense._burst))
            assert np.array_equal(sparse._factors, dense._burst[sparse._bursting])
        if params.get("burst_probability", 0.01) > 0:
            assert sparse._bursting.size > 0


class TestSSEOrderStreamIdentity:
    """Golden digests of the real-payload orders, pinned while the walked
    reference prices still lived in one dense per-stock array."""

    CASES = [
        (dict(num_stocks=50, seed=1), "1f75a84de44d1ddc"),
        (dict(num_stocks=2000, seed=5), "5a245264a2fce911"),
        (
            dict(num_stocks=500, burst_probability=2.0, burst_decay=0.5, seed=13),
            "2928c8005a80ad27",
        ),
    ]

    @pytest.mark.parametrize("params, expected", CASES, ids=["small", "wide", "bursty"])
    def test_order_digest(self, params, expected):
        workload = SSEWorkload(rate=4_000, batch_size=10, real_payloads=True, **params)
        env = Environment()
        live = [workload.schedule(env, i, 2, duration=5.0) for i in range(2)]
        digest = hashlib.sha256()
        orders = 0
        while live:  # round-robin: order ids interleave across instances
            for generator in list(live):
                try:
                    _, batch = next(generator)
                except StopIteration:
                    live.remove(generator)
                    continue
                for order in batch.payload:
                    digest.update(repr((
                        order.order_id, order.user_id, order.side, order.price,
                        order.volume, order.time,
                    )).encode())
                    orders += 1
        assert orders == workload.generated_tuples > 0
        assert digest.hexdigest()[:16] == expected


class TestSSEWeightsWindow:
    PARAMS = dict(rate=20_000, num_stocks=1000, batch_size=10, seed=17)

    def test_skewed_instances_match_unbounded_window(self):
        # Instance 0 runs 10 ticks ahead of the others: the slowest
        # instance pins eviction, so recycled tables never reach a tick
        # anyone still samples from.
        def streams(weights_window):
            workload = SSEWorkload(weights_window=weights_window, **self.PARAMS)
            env = Environment()
            generators = [workload.schedule(env, i, 3, duration=5.0) for i in range(3)]
            out = [[], [], []]

            def pull(i):
                created, batch = next(generators[i])
                out[i].append((created, batch.key, batch.count))
                return created

            for i in range(3):
                pull(i)  # every instance registers at tick 0
            while pull(0) < 1.0:
                pass
            lead = workload._advanced_ticks
            live = [0, 1, 2]
            while live:  # round-robin, so instance 0 keeps its lead
                for i in list(live):
                    try:
                        pull(i)
                    except StopIteration:
                        live.remove(i)
            return out, workload, lead

        bounded, workload, lead = streams(2)
        unbounded, _, _ = streams(None)
        assert lead == 11
        assert bounded == unbounded
        # 50 ticks ran on at most lead + window tables: eviction recycled.
        live = sum(table is not None for table in workload._tick_tables)
        assert workload._evicted_ticks > 0
        assert live + len(workload._spare_tables) <= lead + 2

    def test_evicted_tick_raises_and_returned_weights_stay_put(self):
        workload = SSEWorkload(weights_window=2, **self.PARAMS)
        early = workload.stock_weights(3)
        kept = early.copy()
        rate = workload.stock_rate(7, 3)
        assert rate == pytest.approx(self.PARAMS["rate"] * early[7] / early.sum())
        workload.stock_weights(40)  # recycles tick 3's table, and more
        with pytest.raises(ValueError, match="evicted"):
            workload.stock_weights(3)
        assert np.array_equal(early, kept)

    def test_weights_match_unbounded_window(self):
        bounded = SSEWorkload(weights_window=2, **self.PARAMS)
        unbounded = SSEWorkload(**self.PARAMS)
        for tick in range(0, 50, 7):
            assert np.array_equal(
                bounded.stock_weights(tick), unbounded.stock_weights(tick)
            )


def _tick_threads():
    return [t for t in threading.enumerate() if t.name.startswith("sse-tick")]


class _Boom(Exception):
    pass


class _FailingSSE(SSEWorkload):
    """Raises from the tick it is told to, recording the drawing thread."""

    def __init__(self, fail_at, **kwargs):
        super().__init__(**kwargs)
        self.fail_at = fail_at
        self.step_threads = set()

    def _step(self, tick_index, table):
        self.step_threads.add(threading.current_thread().name)
        if tick_index == self.fail_at:
            raise _Boom(tick_index)
        super()._step(tick_index, table)


class TestSSETickPipeline:
    """Ticks drawn ahead on a worker thread: same stream, no stray threads."""

    def test_next_tick_is_drawn_ahead_only_within_the_horizon(self):
        env = Environment()
        workload = SSEWorkload(rate=20_000, num_stocks=500, seed=3)
        schedule = workload.schedule(env, 0, 1, duration=0.3)
        next(schedule)  # hands out tick 0
        assert workload._in_flight is not None and workload._in_flight.tick == 1
        records = list(schedule)  # ticks 1 and 2; tick 3 is past the horizon
        assert records
        assert workload._in_flight is None
        assert workload._advanced_ticks == 3
        # Without a bounded schedule, ticks run inline.
        unbounded = SSEWorkload(rate=20_000, num_stocks=500, seed=3)
        stream = unbounded.schedule(env, 0, 1)
        next(stream)
        assert unbounded._in_flight is None
        stream.close()
        workload.stock_weights(5)
        assert workload._in_flight is None

    def test_concurrent_workloads_reproduce_the_digests(self):
        # Six workloads, each with its own tick worker, on a two-core
        # box, switching threads every microsecond.
        digests = {}

        def run(index, params):
            workload = SSEWorkload(rate=20_000, batch_size=10, **params)
            digest = hashlib.sha256()
            try:
                for record in _stream(workload):
                    digest.update(repr(record).encode())
            finally:
                workload.close()
            digests[index] = digest.hexdigest()[:16]

        cases = TestSSEStreamIdentity.CASES
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(i, params))
                for i, (params, _) in enumerate(cases)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert digests == {i: expected for i, (_, expected) in enumerate(cases)}

    def test_worker_exception_reaches_the_caller(self):
        env = Environment()
        workload = _FailingSSE(fail_at=3, rate=20_000, num_stocks=500, seed=3)
        with pytest.raises(RuntimeError, match="worker thread") as info:
            for _ in workload.schedule(env, 0, 1, duration=1.0):
                pass
        assert isinstance(info.value.__cause__, _Boom)
        assert "sse-tick-3" in workload.step_threads
        # The workload stays spent, inline or not; close does not raise.
        workload.close()
        workload.close()
        with pytest.raises(RuntimeError) as again:
            workload.stock_weights(10)
        assert isinstance(again.value.__cause__, _Boom)

    def test_close_lands_the_tick_in_flight(self):
        env = Environment()
        workload = SSEWorkload(rate=20_000, num_stocks=500, seed=3)
        next(workload.schedule(env, 0, 1, duration=5.0))
        in_flight = workload._in_flight
        assert in_flight is not None
        workload.close()
        assert workload._in_flight is None
        assert not in_flight.thread.is_alive()
        assert workload._advanced_ticks == 2
        reference = SSEWorkload(rate=20_000, num_stocks=500, seed=3)
        assert np.array_equal(workload.stock_weights(4), reference.stock_weights(4))


class TestSSEWorkerLifecycle:
    """No tick worker outlives ``StreamSystem.run``, however it ends."""

    @staticmethod
    def trial(**overrides):
        from repro.sweep import TrialConfig

        params = dict(
            workload="sse", paradigm="elasticutor", rate=4000.0, seed=3,
            duration=2.0, warmup=0.5, num_nodes=4, cores_per_node=4,
            source_instances=2, executors_per_operator=1,
            shards_per_executor=4, num_keys=500, batch_size=10,
            topology_args={"analytics_executors": 1},
        )
        params.update(overrides)
        return TrialConfig(**params)

    def test_import_starts_no_thread(self):
        code = (
            "import threading, repro; "
            "print(sorted(t.name for t in threading.enumerate()))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.strip() == "['MainThread']"

    def test_no_worker_after_run_returns(self):
        from repro.sweep import build_system

        system = build_system(self.trial())
        system.run(duration=2.0, warmup=0.5)
        assert _tick_threads() == []
        assert system.workload._in_flight is None

    def test_no_worker_after_run_raises(self, monkeypatch):
        from repro.sweep import build_system

        step = SSEWorkload._step

        def failing_step(workload, tick_index, table):
            if tick_index == 5:
                raise _Boom(tick_index)
            step(workload, tick_index, table)

        monkeypatch.setattr(SSEWorkload, "_step", failing_step)
        system = build_system(self.trial())
        with pytest.raises(RuntimeError) as info:
            system.run(duration=2.0, warmup=0.5)
        assert isinstance(info.value.__cause__, _Boom)
        assert _tick_threads() == []

    def test_no_worker_after_a_run_cut_short(self, monkeypatch):
        from repro.sweep import build_system

        in_flight_at_close = []
        close = SSEWorkload.close

        def recording_close(workload):
            in_flight_at_close.append(workload._in_flight is not None)
            close(workload)

        monkeypatch.setattr(SSEWorkload, "close", recording_close)
        # Orders cost 20 ms each against 4000/s offered: the sources fall
        # behind their schedule, so the run ends mid-schedule with the
        # next tick still being drawn.
        system = build_system(self.trial(cost_ms=20.0))
        system.run(duration=2.0, warmup=0.5)
        workload = system.workload
        assert min(workload._instance_ticks.values()) < 19
        assert in_flight_at_close == [True]
        assert _tick_threads() == []
        assert workload._in_flight is None


class TestZipfBoosts:
    def test_boost_raises_key_probability(self):
        dist = ZipfKeyDistribution(100, skew=0.5, seed=4)
        cold = dist.hottest_keys(100)[-1]
        before = dist.probability(cold)
        dist.boost([cold], 50.0)
        assert dist.probability(cold) > 5 * before
        total = sum(dist.probability(k) for k in range(100))
        assert total == pytest.approx(1.0)

    def test_clear_boost_restores_base_distribution(self):
        dist = ZipfKeyDistribution(40, skew=0.8, seed=4)
        base = [dist.probability(k) for k in range(40)]
        dist.boost([3, 7], 10.0)
        dist.clear_boost()
        assert [dist.probability(k) for k in range(40)] == base

    def test_boost_validation(self):
        dist = ZipfKeyDistribution(10, seed=1)
        with pytest.raises(ValueError):
            dist.boost([0], 0.0)
        with pytest.raises(ValueError):
            dist.boost([10], 2.0)

    def test_boosts_survive_shuffle(self):
        """Regression: boosts follow KEYS, not ranks, across a shuffle.

        Before the fix, shuffle() rebuilt only the base cumulative table
        and kept sampling from a stale boosted table, so a mid-burst
        shuffle silently moved the burst onto whichever keys inherited
        the old ranks."""
        dist = ZipfKeyDistribution(200, skew=0.6, seed=11)
        cold = dist.hottest_keys(200)[-1]
        dist.boost([cold], 200.0)
        boosted_before = dist.probability(cold)
        dist.shuffle()
        # The boosted key keeps (approximately) its boosted probability
        # even though its base rank changed.
        assert dist.probability(cold) == pytest.approx(boosted_before, rel=0.5)
        samples = dist.sample(5_000)
        assert samples.count(cold) > 0.05 * len(samples)
        total = sum(dist.probability(k) for k in range(200))
        assert total == pytest.approx(1.0)

    def test_sampling_unaffected_when_no_boosts(self):
        """The no-boost sample path must stay byte-identical."""
        a = ZipfKeyDistribution(100, seed=9)
        b = ZipfKeyDistribution(100, seed=9)
        b.boost([0], 5.0)
        b.clear_boost()
        assert a.sample(200) == b.sample(200)


class TestHotspotBurst:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            BurstEvent(time=-1.0, duration=5.0, factor=2.0)
        with pytest.raises(ValueError):
            BurstEvent(time=0.0, duration=0.0, factor=2.0)
        with pytest.raises(ValueError):
            BurstEvent(time=0.0, duration=5.0, factor=0.0)
        with pytest.raises(ValueError):
            BurstEvent(time=0.0, duration=5.0, factor=2.0, top_n=0)

    def test_burst_fires_and_clears(self):
        env = Environment()
        dist = ZipfKeyDistribution(50, skew=0.7, seed=3)
        base = [dist.probability(k) for k in range(50)]
        burst = HotspotBurst(
            env, dist, [BurstEvent(time=2.0, duration=3.0, factor=20.0)]
        )
        burst.start()
        env.run(until=1.0)
        assert burst.records == []
        env.run(until=4.0)
        assert len(burst.records) == 1
        onset, keys, factor = burst.records[0]
        assert onset == pytest.approx(2.0)
        assert factor == 20.0
        assert dist.probability(keys[0]) > 2 * base[keys[0]]
        env.run(until=6.0)
        assert [dist.probability(k) for k in range(50)] == base

    def test_mid_burst_shuffle_keeps_same_keys_hot(self):
        env = Environment()
        dist = ZipfKeyDistribution(100, skew=0.6, seed=8)
        burst = HotspotBurst(
            env, dist, [BurstEvent(time=1.0, duration=10.0, factor=100.0, top_n=2)]
        )
        burst.start()
        env.run(until=2.0)
        (_, keys, _) = burst.records[0]
        dist.shuffle()
        hot_now = set(dist.hottest_keys(2))
        assert hot_now == set(keys)


class TestMillionKeyScale:
    """Zipf edge cases at million-key sizes under batched delivery.

    The distribution's tables are flat numpy arrays; these properties
    pin down that boost + shuffle + batch sampling stay correct (not
    just fast) when the key space is 1M+."""

    NUM_KEYS = 1_000_000

    def test_construction_and_batch_sampling(self):
        dist = ZipfKeyDistribution(self.NUM_KEYS, skew=0.8, seed=3)
        keys = dist.sample(50_000)
        assert len(keys) == 50_000
        assert all(0 <= k < self.NUM_KEYS for k in keys)
        # Skewed: the hottest 1% of ranks draws far more than 1% of mass.
        hot = set(dist.hottest_keys(self.NUM_KEYS // 100))
        hits = sum(1 for k in keys if k in hot)
        assert hits > 0.1 * len(keys)

    def test_boost_survives_shuffle_at_scale(self):
        # The hot/cold base-probability spread is ~1000x at 1M keys
        # (skew 0.5), so the boost factor must beat that spread for the
        # key to stay hottest wherever the shuffle re-ranks it.  The
        # *factor* follows the key; the absolute probability legitimately
        # changes with the key's new rank.
        dist = ZipfKeyDistribution(self.NUM_KEYS, skew=0.5, seed=9)
        victim = dist.hottest_keys(1)[0]
        before = dist.probability(victim)
        dist.boost([victim], 1e6)
        assert dist.probability(victim) > 100 * before
        for _ in range(3):
            dist.shuffle()
            # Boosts follow keys, not ranks — still the hottest key,
            # still holding dominant probability mass.
            assert dist.hottest_keys(1)[0] == victim
            assert dist.probability(victim) > 0.25

    def test_boosted_batches_hit_boosted_keys(self):
        dist = ZipfKeyDistribution(self.NUM_KEYS, skew=0.3, seed=4)
        targets = [0, 123_456, 999_999]
        dist.boost(targets, 1e5)
        keys = dist.sample(10_000)
        hits = sum(1 for k in keys if k in set(targets))
        assert hits > 1_000  # boosted mass dominates the draw
        dist.clear_boost()
        keys = dist.sample(10_000)
        hits = sum(1 for k in keys if k in set(targets))
        assert hits < 100

    def test_probabilities_normalized_after_boost_and_shuffle(self):
        dist = ZipfKeyDistribution(self.NUM_KEYS, skew=0.6, seed=2)
        dist.boost([7, 11], 42.0)
        dist.shuffle()
        table = dist._boosted_probabilities
        assert table is not None
        assert float(table.sum()) == pytest.approx(1.0)
        assert float(table.min()) > 0.0

    def test_rng_state_roundtrip_resumes_stream(self):
        dist = ZipfKeyDistribution(self.NUM_KEYS, skew=0.5, seed=17)
        state = dist.rng_state()
        first = dist.sample(1000)
        dist.set_rng_state(state)
        assert dist.sample(1000) == first


@pytest.mark.parametrize("make, field", [
    (lambda: MicroBenchmarkWorkload(rate=float("nan")), "rate"),
    (lambda: SSEWorkload(rate=-1), "rate"),
    (lambda: SSEWorkload(num_stocks=2.5), "num_stocks"),
    (lambda: ZipfKeyDistribution(True), "num_keys"),
    (lambda: ZipfKeyDistribution(10, skew=float("nan")), "skew"),
    (lambda: WindowedJoinWorkload(window_bytes_per_shard=float("inf")),
     "window_bytes_per_shard"),
    (lambda: SSEWorkload(weights_window=2.5), "weights_window"),
    (lambda: SSEWorkload(weights_window=float("nan")), "weights_window"),
    (lambda: SSEWorkload(weights_window=1), "weights_window"),
    (lambda: SSEWorkload().build_topology(hot_state_entries=2.5), "hot_state_entries"),
    (lambda: SSEWorkload().build_topology(hot_state_entries=float("nan")),
     "hot_state_entries"),
    (lambda: SSEWorkload().build_topology(shards_per_executor=2.5), "shards_per_executor"),
    (lambda: SSEWorkload().build_topology(analytics_executors=0), "analytics_executors"),
], ids=[
    "micro-nan-rate", "sse-negative-rate", "sse-float-stocks",
    "zipf-bool-keys", "zipf-nan-skew", "join-inf-window",
    "sse-float-window", "sse-nan-window", "sse-window-1",
    "sse-float-hot-entries", "sse-nan-hot-entries", "sse-float-shards",
    "sse-zero-analytics-executors",
])
def test_malformed_parameter_rejected_at_construction_by_name(make, field):
    # At construction (or topology build), by name: a NaN rate once died
    # mid-run converting the tick's tuple count to an integer, and a
    # float weights_window mid-run evicting tables.
    with pytest.raises(ValueError, match=f"^{field} must be "):
        make()
