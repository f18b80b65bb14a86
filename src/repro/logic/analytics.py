"""Analytics and event operators of the SSE application (paper §5.4).

Downstream of the transactor: six statistics operators and five
event-processing operators consume transaction records keyed by stock id.
Each logic works in two modes: with real :class:`Transaction` payloads it
computes genuine statistics; in cost-only mode it just charges CPU time
(these operators are sinks, so no emissions either way).
"""

from __future__ import annotations

import collections
import typing

import numpy as np

from repro.logic.base import OperatorLogic, StateAccess
from repro.topology.batch import Emission, TupleBatch


class _SinkAnalyticsLogic(OperatorLogic):
    """Shared plumbing for terminal analytics operators."""

    def __init__(self, cost_per_record: float = 0.1e-3) -> None:
        if cost_per_record < 0:
            raise ValueError("cost_per_record must be >= 0")
        self.cost_per_record = cost_per_record

    def cpu_seconds(self, batch: TupleBatch) -> float:
        return batch.count * self.cost_per_record

    def process(
        self, batch: TupleBatch, state: StateAccess
    ) -> typing.List[Emission]:
        if batch.payload is not None:
            self._consume(batch, state)
        return []

    def _consume(self, batch: TupleBatch, state: StateAccess) -> None:
        raise NotImplementedError


class MovingAverageLogic(_SinkAnalyticsLogic):
    """Sliding-window moving average of trade prices per stock."""

    def __init__(self, window: float = 60.0, cost_per_record: float = 0.1e-3) -> None:
        super().__init__(cost_per_record)
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window

    def _consume(self, batch: TupleBatch, state: StateAccess) -> None:
        history = state.get(batch.key)
        if history is None:
            history = collections.deque()
            state.put(batch.key, history)
        for txn in batch.payload:
            history.append((txn.time, txn.price))
        horizon = batch.payload[-1].time - self.window
        while history and history[0][0] < horizon:
            history.popleft()

    def average(self, state: StateAccess, stock_id: int) -> typing.Optional[float]:
        history = state.get(stock_id)
        if not history:
            return None
        return sum(price for _, price in history) / len(history)


class TradeStatisticsLogic(_SinkAnalyticsLogic):
    """Aggregate volume, turnover and VWAP per stock."""

    def _consume(self, batch: TupleBatch, state: StateAccess) -> None:
        stats = state.get(batch.key)
        if stats is None:
            stats = {"volume": 0, "turnover": 0.0, "trades": 0}
            state.put(batch.key, stats)
        for txn in batch.payload:
            stats["volume"] += txn.volume
            stats["turnover"] += txn.volume * txn.price
            stats["trades"] += 1

    def vwap(self, state: StateAccess, stock_id: int) -> typing.Optional[float]:
        stats = state.get(stock_id)
        if not stats or stats["volume"] == 0:
            return None
        return stats["turnover"] / stats["volume"]


class CompositeIndexLogic(_SinkAnalyticsLogic):
    """Capitalization-weighted index contribution of each stock.

    A true composite index needs a global aggregation; as in the paper's
    per-key partitioning, each shard maintains the contributions of its own
    stocks (last price × index weight), which a final lightweight combiner
    could sum.
    """

    def __init__(
        self,
        weights: typing.Optional[typing.Dict[int, float]] = None,
        cost_per_record: float = 0.1e-3,
    ) -> None:
        super().__init__(cost_per_record)
        self.weights = weights or {}

    def _consume(self, batch: TupleBatch, state: StateAccess) -> None:
        last_price = batch.payload[-1].price
        weight = self.weights.get(batch.key, 1.0)
        state.put(batch.key, last_price * weight)


class PriceAlarmLogic(_SinkAnalyticsLogic):
    """User-defined alarms when a trade price crosses a threshold.

    A key's threshold is its ``thresholds`` entry times ``factor``, so
    operators alarming at different multiples of one reference price
    share that price array.
    """

    def __init__(
        self,
        thresholds: typing.Union[typing.Dict[int, float], "np.ndarray", None] = None,
        cost_per_record: float = 0.1e-3,
        factor: float = 1.0,
    ) -> None:
        super().__init__(cost_per_record)
        # Either a sparse dict (a few watched keys) or a dense per-key
        # array (keys 0..len-1 watched — million-key workloads hand one
        # flat array instead of a million-entry dict).  The array is kept
        # as a read-only view, so executor replicas share one buffer.
        if thresholds is None:
            thresholds = {}
        elif not isinstance(thresholds, dict):
            thresholds = np.asarray(thresholds, dtype=np.float64)
            if thresholds.ndim != 1:
                raise ValueError(
                    "dense thresholds must be a 1-D array, got shape "
                    f"{thresholds.shape}"
                )
            thresholds = thresholds.view()
            thresholds.flags.writeable = False
        self.thresholds = thresholds
        self.factor = factor
        self.alarms: typing.List[typing.Tuple[float, int, float]] = []

    def _consume(self, batch: TupleBatch, state: StateAccess) -> None:
        thresholds = self.thresholds
        if isinstance(thresholds, dict):
            threshold = thresholds.get(batch.key)
        elif 0 <= batch.key < len(thresholds):
            threshold = float(thresholds[batch.key])
        else:
            return  # outside the dense array: unwatched
        if threshold is None:
            return
        threshold *= self.factor
        armed = state.get(batch.key, True)
        for txn in batch.payload:
            if armed and txn.price >= threshold:
                self.alarms.append((txn.time, batch.key, txn.price))
                armed = False  # re-arm only after price falls back
            elif not armed and txn.price < threshold:
                armed = True
        state.put(batch.key, armed)


class FraudDetectionLogic(_SinkAnalyticsLogic):
    """Flags wash trading: the same user on both sides of a trade, or
    rapid back-and-forth trading between a user pair within a short window."""

    def __init__(
        self,
        pair_window: float = 10.0,
        pair_threshold: int = 3,
        cost_per_record: float = 0.1e-3,
    ) -> None:
        super().__init__(cost_per_record)
        self.pair_window = pair_window
        self.pair_threshold = pair_threshold
        self.flags: typing.List[typing.Tuple[float, str, typing.Tuple]] = []

    def _consume(self, batch: TupleBatch, state: StateAccess) -> None:
        recent = state.get(batch.key)
        if recent is None:
            recent = collections.deque()
            state.put(batch.key, recent)
        for txn in batch.payload:
            if txn.buyer_id == txn.seller_id:
                self.flags.append((txn.time, "self-trade", (txn.buyer_id,)))
                continue
            pair = (min(txn.buyer_id, txn.seller_id), max(txn.buyer_id, txn.seller_id))
            recent.append((txn.time, pair))
            horizon = txn.time - self.pair_window
            while recent and recent[0][0] < horizon:
                recent.popleft()
            hits = sum(1 for _, seen in recent if seen == pair)
            if hits >= self.pair_threshold:
                self.flags.append((txn.time, "wash-pair", pair))
