"""Synthetic Shanghai-Stock-Exchange workload (paper §5.4).

The paper uses a proprietary trace of limit orders (three months,
~8M records per trading hour, 96-byte orders) whose per-stock arrival
rates fluctuate heavily (Figure 15).  This generator reproduces the
trace's relevant structure:

- stock popularity follows a zipf distribution;
- each stock's rate drifts as a bounded geometric random walk and
  occasionally *bursts* (5-20x for tens of seconds) — giving the spiky
  per-stock rate curves of Figure 15;
- orders are limit orders with bid/ask prices around a per-stock
  reference price, so the real order-book transactor produces plausible
  match rates.

All per-stock state lives in flat numpy arrays and every tick advances
the whole market in a handful of vectorized draws from seeded
``numpy.random.Generator`` streams, so the generator stays usable at
million-stock key spaces.  The per-tick RNG consumption is *fixed shape*
(three full-width vectors) regardless of which stocks burst, which keeps
parameter changes from silently desynchronizing unrelated draws.

The draws stay full-width, but the state derived from them is sparse:
decay, the burst cut-off and onsets touch only the bursting stocks.
Each tick ends in one cumulative weight table, written into a recycled
buffer and shared by every source instance, which sample stocks from it
by inverse CDF; the draws themselves land in preallocated scratch, so a
tick allocates nothing per stock.

Ticks are pipelined.  While a ``schedule(duration=...)`` is registered,
handing out the newest tick starts the next one on a worker thread
(``_step``), so the draws overlap the simulator consuming the current
tick: numpy's draws and passes release the GIL.  The worker owns the
market state -- ``_rng``, ``_multiplier``, ``_burst``, ``_bursting``,
``_draws``, ``_onset_mask`` -- and writes only the table buffer it was
given.  The main thread owns the bookkeeping: ``_tick_tables``,
``_spare_tables``, ``_evict``, ``_instance_ticks``, ``_horizons`` and
``_advanced_ticks``.  At most one tick is in flight and none past the
last tick a registered schedule reads, and ticks draw in order, so the
stream is bit-identical to drawing every tick inline.  :meth:`close`
joins the tick in flight (``StreamSystem.run`` calls it); afterwards
ticks run inline.

Topology: orders -> transactor -> 6 statistics + 5 event operators,
keyed by stock id throughout.
"""

from __future__ import annotations

import math
import threading
import typing

import numpy as np

from repro.fields import COUNT, NON_NEGATIVE, POSITIVE, check_fields, check_number
from repro.logic import (
    CompositeIndexLogic,
    FraudDetectionLogic,
    MovingAverageLogic,
    PriceAlarmLogic,
    TradeStatisticsLogic,
    TransactorLogic,
)
from repro.logic.orderbook import BUY, ORDER_BYTES, SELL, LimitOrder
from repro.sim import Environment
from repro.topology import KeySpace, Topology, TopologyBuilder, TupleBatch

#: Order sizes drawn uniformly (shares per limit order).
_VOLUMES = np.array([100, 200, 300, 500, 1000])


class _InFlightTick:
    """One market tick being drawn on its own worker thread."""

    __slots__ = ("tick", "table", "error", "thread")

    def __init__(self, workload: "SSEWorkload", tick: int, table: np.ndarray) -> None:
        self.tick = tick
        self.table = table
        self.error: typing.Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._run, args=(workload,), name=f"sse-tick-{tick}"
        )
        self.thread.start()

    def _run(self, workload: "SSEWorkload") -> None:
        try:
            workload._step(self.tick, self.table)
        except BaseException as exc:  # handed to the main thread by _land
            self.error = exc


#: Load rules of the generator's kept numbers (``popularity_skew`` only
#: shapes the initial weights and is checked beside them).
_SSE_RULES = {
    "rate": POSITIVE, "num_stocks": COUNT, "order_cost": NON_NEGATIVE,
    "analytics_cost": NON_NEGATIVE, "match_ratio": NON_NEGATIVE, "batch_size": COUNT,
    "tick": POSITIVE, "drift_sigma": NON_NEGATIVE, "burst_probability": NON_NEGATIVE,
    "burst_magnitude": POSITIVE, "burst_decay": POSITIVE,
}


class SSEWorkload:
    """Synthetic order stream plus the market-clearing/analytics topology."""

    #: The six statistics operators and five event operators of Figure 14.
    STATISTICS_OPERATORS = (
        "moving_average", "minute_bars", "vwap", "volume_stats",
        "turnover_stats", "composite_index",
    )
    EVENT_OPERATORS = (
        "price_alarm", "circuit_breaker", "volume_spike", "fraud_detection",
        "momentum",
    )

    def __init__(
        self,
        rate: float = 20_000.0,
        num_stocks: int = 500,
        popularity_skew: float = 0.7,
        order_cost: float = 1e-3,
        analytics_cost: float = 0.05e-3,
        match_ratio: float = 0.7,
        batch_size: int = 10,
        tick: float = 0.1,
        drift_sigma: float = 0.12,
        burst_probability: float = 0.01,
        burst_magnitude: float = 8.0,
        burst_decay: float = 0.92,
        real_payloads: bool = False,
        track_arrivals: bool = True,
        weights_window: typing.Optional[int] = None,
        seed: int = 7,
    ) -> None:
        self.rate = rate
        self.num_stocks = num_stocks
        self.order_cost = order_cost
        self.analytics_cost = analytics_cost
        self.match_ratio = match_ratio
        self.batch_size = batch_size
        self.tick = tick
        self.drift_sigma = drift_sigma
        self.burst_probability = burst_probability
        self.burst_magnitude = burst_magnitude
        self.burst_decay = burst_decay
        check_fields(self, _SSE_RULES)
        check_number("popularity_skew", popularity_skew, NON_NEGATIVE)
        for name in ("match_ratio", "burst_decay"):
            if getattr(self, name) > 1:
                raise ValueError(f"{name} must be <= 1, got {getattr(self, name)!r}")
        self.real_payloads = real_payloads
        #: Record per-tick per-stock arrival counts (Figure 15's data).
        #: Off by default at million-key scale: the counters would
        #: dominate the workload's own memory footprint.
        self.track_arrivals = track_arrivals
        #: Retain only the last N ticks' cumulative weight tables.  Each
        #: table is 8 bytes/stock, so unbounded retention at a million
        #: stocks costs ~8 MB *per tick*; source instances all read
        #: within a tick or two of each other, so a small window suffices
        #: for generation, and evicted tables are recycled for new ticks.
        #: None keeps every tick (analysis).
        if weights_window is not None and weights_window < 2:
            raise ValueError("weights_window must be >= 2")
        self.weights_window = weights_window
        self._evicted_ticks = 0
        #: Source-instance progress (instance -> current tick).  Eviction
        #: never passes the slowest registered instance: under
        #: backpressure instances drift apart, and a fast instance must
        #: not advance the shared window past a tick a slow one still
        #: has to sample from.
        self._instance_ticks: typing.Dict[int, int] = {}
        #: Registered instances' ``schedule`` durations (inf: unbounded).
        #: The worker never draws a tick none of them will read.
        self._horizons: typing.Dict[int, float] = {}
        self._in_flight: typing.Optional[_InFlightTick] = None
        #: What a tick drawn on the worker raised; the workload is spent.
        self._failure: typing.Optional[BaseException] = None
        self._closed = False
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._order_rng = np.random.Generator(np.random.PCG64(seed + 1))
        ranks = np.arange(1, num_stocks + 1, dtype=np.float64)
        weights = ranks ** -popularity_skew
        # Stock 0 is the most popular, 1 next, etc. (ids are ranks).
        self.popularity = weights / weights.sum()
        self._multiplier = np.ones(num_stocks)
        self._burst = np.zeros(num_stocks)
        #: Stocks whose burst is nonzero: ``_burst[s] != 0`` iff s is here.
        self._bursting = np.empty(0, dtype=np.intp)
        #: Scratch every tick's full-width draws land in.
        self._draws = np.empty(num_stocks)
        self._onset_mask = np.empty(num_stocks, dtype=bool)
        self._advanced_ticks = 0
        #: tick index -> cumulative weight table (None once evicted).
        self._tick_tables: typing.List[typing.Optional[np.ndarray]] = []
        self._spare_tables: typing.List[np.ndarray] = []
        self._reference_price = 10.0 + 90.0 * self._rng.random(num_stocks)
        self._next_order_id = 0
        self.generated_tuples = 0
        #: Generator-side ingest watermark: newest nominal creation time
        #: drawn by any instance (the stamp the latency probes trace).
        self.last_created = 0.0
        #: tick index -> per-stock tuple counts (drives Figure 15).
        self.arrival_counts: typing.Dict[int, np.ndarray] = {}

    # -- time-varying rates -------------------------------------------------

    def _step(self, tick_index: int, table: np.ndarray) -> None:
        """Draw one market tick and write its cumulative weight table.

        Three vectorized draws over all stocks (drift, burst-onset mask,
        burst magnitudes) -- the RNG stream shape never depends on the
        data, only on the tick count -- and one pass that writes
        ``table``.  Runs on the worker thread when pipelined, so it
        touches only the market state and ``table``.
        """
        rng = self._rng
        n = self.num_stocks
        sigma = self.drift_sigma * math.sqrt(self.tick)
        decay_per_tick = self.burst_decay ** self.tick
        floor = 0.05 * decay_per_tick
        onset_probability = self.burst_probability * self.tick
        popularity = self.popularity
        multiplier = self._multiplier
        burst = self._burst
        draws = self._draws
        # Same values as exp(rng.normal(0.0, sigma, n)), without the
        # per-tick array.
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
        # weights = popularity * multiplier * (1 + burst): the factor is
        # exactly 1.0 off the bursting stocks, so only those are touched
        # after the dense product.
        np.multiply(popularity, multiplier, out=table)
        table[bursting] *= 1.0 + burst[bursting]
        np.cumsum(table, out=table)

    def _advance_to(self, tick_index: int) -> None:
        """Make every tick up to ``tick_index`` ready, landing the tick in
        flight first if it is one of them."""
        in_flight = self._in_flight
        if in_flight is not None and in_flight.tick <= tick_index:
            self._land(in_flight)
        if self._failure is not None:
            raise RuntimeError(
                "a market tick failed on the worker thread; the workload "
                "cannot advance"
            ) from self._failure
        while self._advanced_ticks <= tick_index:
            self._evict(self._advanced_ticks + 1)
            table = self._spare_table()
            self._step(self._advanced_ticks, table)
            self._tick_tables.append(table)
            self._advanced_ticks += 1
        self._evict(self._advanced_ticks)

    def _spare_table(self) -> np.ndarray:
        return self._spare_tables.pop() if self._spare_tables else np.empty(self.num_stocks)

    def _prefetch(self) -> None:
        """Start drawing the next tick on a worker thread, if none is in
        flight and every registered schedule is bounded, one of them
        reading that tick."""
        if self._in_flight is not None or self._closed:
            return
        tick_index = self._advanced_ticks
        horizon = max(self._horizons.values(), default=math.inf)
        if horizon == math.inf or tick_index * self.tick >= horizon:
            return
        self._evict(tick_index + 1)
        self._in_flight = _InFlightTick(self, tick_index, self._spare_table())

    def _land(self, in_flight: _InFlightTick) -> None:
        """Wait for the tick in flight and append its table."""
        in_flight.thread.join()
        self._in_flight = None
        if in_flight.error is not None:
            self._failure = in_flight.error
            return
        self._tick_tables.append(in_flight.table)
        self._advanced_ticks += 1

    def close(self) -> None:
        """Join the tick in flight; from here on ticks run inline.

        Idempotent.  A failure of the joined tick is raised by the next
        tick query, not here.
        """
        self._closed = True
        if self._in_flight is not None:
            self._land(self._in_flight)

    def _evict(self, advanced_ticks: int) -> None:
        """Recycle tables behind both the window and the slowest instance."""
        window = self.weights_window
        if window is None:
            return
        keep_from = advanced_ticks - window
        if self._instance_ticks:
            keep_from = min(keep_from, min(self._instance_ticks.values()))
        # Keep list indexing tick-aligned: evicted slots read None.
        for i in range(self._evicted_ticks, keep_from):
            self._spare_tables.append(self._tick_tables[i])
            self._tick_tables[i] = None
        self._evicted_ticks = max(self._evicted_ticks, keep_from)

    def _table(self, tick_index: int) -> np.ndarray:
        """Cumulative weight table of one tick.

        The array is recycled once the tick leaves the window, so
        callers must read it before the workload advances again.
        """
        if tick_index < 0:
            raise ValueError(f"tick index must be >= 0, got {tick_index}")
        self._advance_to(tick_index)
        table = self._tick_tables[tick_index]
        if table is None:
            raise ValueError(
                f"tick {tick_index} weights were evicted "
                f"(weights_window={self.weights_window}); widen the window "
                "or query before advancing past it"
            )
        self._prefetch()
        return table

    def stock_weights(self, tick_index: int) -> np.ndarray:
        """Per-stock weights of one tick (a fresh array the caller owns)."""
        table = self._table(tick_index)
        weights = table.copy()
        weights[1:] -= table[:-1]
        return weights

    def stock_rate(self, stock: int, tick_index: int) -> float:
        """Instantaneous arrival rate of one stock (tuples/s)."""
        if not 0 <= stock < self.num_stocks:
            raise ValueError(
                f"stock must lie in 0..{self.num_stocks - 1}, got {stock}"
            )
        table = self._table(tick_index)
        weight = table[stock] - table[stock - 1] if stock else table[0]
        return float(self.rate * weight / table[-1])

    # -- order synthesis ------------------------------------------------------

    def _make_orders(self, stock: int, count: int, time: float) -> typing.List[LimitOrder]:
        rng = self._order_rng
        reference = self._reference_price[stock]
        # Reference price itself random-walks slowly.
        reference = max(1.0, reference * math.exp(rng.normal(0.0, 0.001)))
        self._reference_price[stock] = reference
        # All numeric draws for the batch are vectorized; the python loop
        # only assembles the (immutable) order records.
        buys = rng.random(count) < 0.5
        # Buyers bid slightly below/above reference, sellers mirror it;
        # the overlap yields a realistic partial match rate.
        offsets = rng.normal(0.0, 0.005, count) + np.where(buys, 0.002, -0.002)
        prices = np.round(np.maximum(0.01, reference * (1.0 + offsets)), 2)
        users = rng.integers(0, 10_000, count)
        volumes = _VOLUMES[rng.integers(0, len(_VOLUMES), count)]
        first_id = self._next_order_id + 1
        self._next_order_id += count
        return [
            LimitOrder(
                order_id=first_id + i,
                user_id=int(users[i]),
                stock_id=stock,
                side=BUY if buys[i] else SELL,
                price=float(prices[i]),
                volume=int(volumes[i]),
                time=time,
            )
            for i in range(count)
        ]

    # -- schedule -------------------------------------------------------------

    def schedule(
        self,
        env: Environment,
        instance_index: int,
        num_instances: int,
        duration: typing.Optional[float] = None,
    ) -> typing.Iterator[typing.Tuple[float, TupleBatch]]:
        """(emit_time, order batch) stream for one source instance.

        Lazy at tick granularity: each tick draws the stock ids and
        creation times as whole arrays (inverse-CDF over the tick's
        shared cumulative table), then yields the batch objects one by
        one.
        """
        if not 0 <= instance_index < num_instances:
            raise ValueError("instance_index out of range")
        per_instance_rate = self.rate / num_instances
        tuples_per_tick = per_instance_rate * self.tick
        batch_size = self.batch_size
        carry = 0.0
        tick_index = 0
        rng = np.random.Generator(
            np.random.PCG64(hash((instance_index, 97)) & 0xFFFF)
        )
        self._horizons[instance_index] = math.inf if duration is None else duration
        try:
            while duration is None or tick_index * self.tick < duration:
                self._instance_ticks[instance_index] = tick_index
                cumulative = self._table(tick_index)
                tick_start = tick_index * self.tick
                wanted = tuples_per_tick + carry
                num_batches = int(wanted / batch_size)
                carry = wanted - num_batches * batch_size
                if num_batches > 0:
                    draws = rng.random(num_batches) * cumulative[-1]
                    stocks = np.minimum(
                        np.searchsorted(cumulative, draws), self.num_stocks - 1
                    )
                    spacing = self.tick / num_batches
                    created_times = (
                        tick_start + spacing * np.arange(num_batches)
                    ).tolist()
                    last = created_times[-1]
                    if last > self.last_created:
                        self.last_created = last
                    if self.track_arrivals:
                        counts = np.bincount(stocks, minlength=self.num_stocks)
                        counts *= batch_size
                        previous = self.arrival_counts.get(tick_index)
                        if previous is None:
                            self.arrival_counts[tick_index] = counts
                        else:
                            previous += counts
                    self.generated_tuples += num_batches * batch_size
                    for created, stock in zip(created_times, stocks.tolist()):
                        payload = (
                            self._make_orders(stock, batch_size, created)
                            if self.real_payloads
                            else None
                        )
                        yield created, TupleBatch(
                            key=stock,
                            count=batch_size,
                            cpu_cost=self.order_cost,
                            size_bytes=ORDER_BYTES,
                            created_at=created,
                            payload=payload,
                        )
                tick_index += 1
        finally:
            self._instance_ticks.pop(instance_index, None)
            self._horizons.pop(instance_index, None)

    def arrival_series(
        self, stocks: typing.Sequence[int], window_ticks: int = 10
    ) -> typing.Dict[int, typing.List[typing.Tuple[float, float]]]:
        """Per-stock (time, rate tuples/s) curves — Figure 15's data."""
        series: typing.Dict[int, typing.List[typing.Tuple[float, float]]] = {
            stock: [] for stock in stocks
        }
        if not self.arrival_counts:
            return series
        max_tick = max(self.arrival_counts)
        for start in range(0, max_tick + 1, window_ticks):
            window = range(start, min(start + window_ticks, max_tick + 1))
            span = len(window) * self.tick
            for stock in stocks:
                total = sum(
                    int(counts[stock])
                    for t in window
                    if (counts := self.arrival_counts.get(t)) is not None
                )
                series[stock].append((start * self.tick, total / span))
        return series

    # -- topology --------------------------------------------------------------

    def build_topology(
        self,
        executors_per_operator: int = 32,
        shards_per_executor: int = 256,
        shard_state_bytes: int = 32 * 1024,
        analytics_executors: typing.Optional[int] = None,
        hot_state_entries: typing.Optional[int] = None,
    ) -> Topology:
        """orders -> transactor -> 6 statistics + 5 event operators."""
        analytics_executors = analytics_executors or max(
            1, executors_per_operator // 4
        )
        key_space = KeySpace(self.num_stocks)
        builder = TopologyBuilder()
        builder.add_source(
            "orders", key_space=key_space, num_executors=executors_per_operator
        )
        builder.add_operator(
            "transactor",
            TransactorLogic(cost_per_order=self.order_cost, match_ratio=self.match_ratio),
            upstream=["orders"],
            key_space=key_space,
            num_executors=executors_per_operator,
            shards_per_executor=shards_per_executor,
            shard_state_bytes=shard_state_bytes,
            hot_state_entries=hot_state_entries,
        )
        reference = self._reference_price
        analytics: typing.Dict[str, typing.Any] = {
            "moving_average": MovingAverageLogic(window=60.0, cost_per_record=self.analytics_cost),
            "minute_bars": MovingAverageLogic(window=300.0, cost_per_record=self.analytics_cost),
            "vwap": TradeStatisticsLogic(cost_per_record=self.analytics_cost),
            "volume_stats": TradeStatisticsLogic(cost_per_record=self.analytics_cost),
            "turnover_stats": TradeStatisticsLogic(cost_per_record=self.analytics_cost),
            "composite_index": CompositeIndexLogic(cost_per_record=self.analytics_cost),
            "price_alarm": PriceAlarmLogic(
                thresholds=reference * 1.05,
                cost_per_record=self.analytics_cost,
            ),
            "circuit_breaker": PriceAlarmLogic(
                thresholds=reference * 1.10,
                cost_per_record=self.analytics_cost,
            ),
            "volume_spike": PriceAlarmLogic(
                thresholds=reference * 1.02,
                cost_per_record=self.analytics_cost,
            ),
            "fraud_detection": FraudDetectionLogic(cost_per_record=self.analytics_cost),
            "momentum": MovingAverageLogic(window=10.0, cost_per_record=self.analytics_cost),
        }
        for name in self.STATISTICS_OPERATORS + self.EVENT_OPERATORS:
            builder.add_operator(
                name,
                analytics[name],
                upstream=["transactor"],
                key_space=key_space,
                num_executors=analytics_executors,
                shards_per_executor=shards_per_executor,
                shard_state_bytes=shard_state_bytes // 4,
                hot_state_entries=hot_state_entries,
            )
        return builder.build()
