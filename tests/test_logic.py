"""Unit tests for operator logic: synthetic, order book, analytics."""

import numpy as np
import pytest

from repro.logic import (
    FraudDetectionLogic,
    LimitOrder,
    MovingAverageLogic,
    OrderBook,
    PriceAlarmLogic,
    SyntheticLogic,
    TradeStatisticsLogic,
    TransactorLogic,
)
from repro.logic.base import StateAccess
from repro.logic.orderbook import BUY, SELL, TRANSACTION_BYTES, Transaction
from repro.state import ShardState
from repro.topology import TupleBatch


def make_state():
    return StateAccess(ShardState(0))


def batch(key=1, count=10, cost=1e-3, size=128, payload=None, created=0.0):
    return TupleBatch(
        key=key, count=count, cpu_cost=cost, size_bytes=size,
        created_at=created, payload=payload,
    )


class TestSyntheticLogic:
    def test_default_passthrough(self):
        logic = SyntheticLogic()
        out = logic.process(batch(count=10), make_state())
        assert len(out) == 1
        assert out[0].count == 10
        assert out[0].size_bytes == 128

    def test_selectivity_with_carry(self):
        logic = SyntheticLogic(selectivity=0.5)
        state = make_state()
        counts = [len(logic.process(batch(count=1), state)) for _ in range(10)]
        emitted = sum(counts)
        assert emitted == 5  # exactly half over 10 single-tuple batches

    def test_zero_selectivity_emits_nothing(self):
        logic = SyntheticLogic(selectivity=0.0)
        assert logic.process(batch(), make_state()) == []

    def test_cost_override(self):
        logic = SyntheticLogic(cost_per_tuple=2e-3)
        assert logic.cpu_seconds(batch(count=5, cost=1e-3)) == pytest.approx(0.01)

    def test_cost_defaults_to_batch(self):
        logic = SyntheticLogic()
        assert logic.cpu_seconds(batch(count=5, cost=1e-3)) == pytest.approx(0.005)

    def test_state_touched(self):
        logic = SyntheticLogic()
        state = make_state()
        logic.process(batch(key=9, count=3), state)
        logic.process(batch(key=9, count=4), state)
        assert state.get(9) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticLogic(selectivity=-1)


class TestOrderBook:
    def order(self, side, price, volume, user=1, oid=0, stock=5):
        return LimitOrder(
            order_id=oid, user_id=user, stock_id=stock,
            side=side, price=price, volume=volume,
        )

    def test_no_match_queues_order(self):
        book = OrderBook(5)
        assert book.execute(self.order(BUY, 10.0, 100)) == []
        assert book.outstanding_orders == 1
        assert book.best_bid() == 10.0

    def test_cross_match(self):
        book = OrderBook(5)
        book.execute(self.order(SELL, 9.0, 100, user=1))
        trades = book.execute(self.order(BUY, 10.0, 100, user=2))
        assert len(trades) == 1
        assert trades[0].price == 9.0  # maker price
        assert trades[0].volume == 100
        assert trades[0].buyer_id == 2
        assert trades[0].seller_id == 1
        assert book.outstanding_orders == 0

    def test_partial_fill_queues_remainder(self):
        book = OrderBook(5)
        book.execute(self.order(SELL, 9.0, 60, user=1))
        trades = book.execute(self.order(BUY, 9.0, 100, user=2))
        assert len(trades) == 1
        assert trades[0].volume == 60
        assert book.best_bid() == 9.0  # 40 shares left bid

    def test_price_priority(self):
        book = OrderBook(5)
        book.execute(self.order(SELL, 9.5, 10, user=1))
        book.execute(self.order(SELL, 9.0, 10, user=2))
        trades = book.execute(self.order(BUY, 10.0, 10, user=3))
        assert trades[0].seller_id == 2  # best (lowest) ask first

    def test_time_priority_at_same_price(self):
        book = OrderBook(5)
        book.execute(self.order(SELL, 9.0, 10, user=1))
        book.execute(self.order(SELL, 9.0, 10, user=2))
        trades = book.execute(self.order(BUY, 9.0, 10, user=3))
        assert trades[0].seller_id == 1

    def test_buy_sweeps_multiple_asks(self):
        book = OrderBook(5)
        book.execute(self.order(SELL, 9.0, 30, user=1))
        book.execute(self.order(SELL, 9.5, 30, user=2))
        trades = book.execute(self.order(BUY, 10.0, 50, user=3))
        assert [t.volume for t in trades] == [30, 20]
        assert book.best_ask() == 9.5

    def test_sell_matches_bids(self):
        book = OrderBook(5)
        book.execute(self.order(BUY, 10.0, 50, user=1))
        trades = book.execute(self.order(SELL, 9.0, 50, user=2))
        assert trades[0].price == 10.0
        assert trades[0].buyer_id == 1

    def test_wrong_stock_rejected(self):
        book = OrderBook(5)
        with pytest.raises(ValueError):
            book.execute(self.order(BUY, 10.0, 1, stock=6))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            self.order("hold", 10.0, 1)
        with pytest.raises(ValueError):
            self.order(BUY, -1.0, 1)
        with pytest.raises(ValueError):
            self.order(BUY, 1.0, 0)


class TestTransactorLogic:
    def test_cost_only_mode_selectivity(self):
        logic = TransactorLogic(match_ratio=0.5)
        state = make_state()
        emitted = sum(
            out[0].count
            for out in (logic.process(batch(count=10), state) for _ in range(10))
            if out
        )
        assert emitted == 50

    def test_real_mode_matches_orders(self):
        logic = TransactorLogic()
        state = make_state()
        orders = [
            LimitOrder(order_id=1, user_id=1, stock_id=7, side=SELL, price=9.0, volume=10),
            LimitOrder(order_id=2, user_id=2, stock_id=7, side=BUY, price=10.0, volume=10),
        ]
        out = logic.process(batch(key=7, count=2, payload=orders), state)
        assert len(out) == 1
        assert out[0].count == 1
        assert out[0].size_bytes == TRANSACTION_BYTES
        assert out[0].payload[0].volume == 10
        # Book persists in state across batches.
        assert state.get(7).outstanding_orders == 0

    def test_real_mode_no_match_no_emission(self):
        logic = TransactorLogic()
        state = make_state()
        orders = [
            LimitOrder(order_id=1, user_id=1, stock_id=7, side=SELL, price=11.0, volume=10),
        ]
        assert logic.process(batch(key=7, count=1, payload=orders), state) == []


def txn(price, time=0.0, volume=10, buyer=1, seller=2, stock=3):
    return Transaction(
        stock_id=stock, price=price, volume=volume,
        buyer_id=buyer, seller_id=seller, time=time,
    )


class TestAnalyticsLogics:
    def test_moving_average(self):
        logic = MovingAverageLogic(window=60.0)
        state = make_state()
        txns = [txn(10.0, time=0.0), txn(20.0, time=1.0)]
        logic.process(batch(key=3, count=2, payload=txns), state)
        assert logic.average(state, 3) == pytest.approx(15.0)

    def test_moving_average_evicts_old(self):
        logic = MovingAverageLogic(window=10.0)
        state = make_state()
        logic.process(batch(key=3, count=1, payload=[txn(10.0, time=0.0)]), state)
        logic.process(batch(key=3, count=1, payload=[txn(30.0, time=20.0)]), state)
        assert logic.average(state, 3) == pytest.approx(30.0)

    def test_trade_statistics_vwap(self):
        logic = TradeStatisticsLogic()
        state = make_state()
        txns = [txn(10.0, volume=10), txn(20.0, volume=30)]
        logic.process(batch(key=3, count=2, payload=txns), state)
        assert logic.vwap(state, 3) == pytest.approx((100 + 600) / 40)

    def test_price_alarm_fires_once_per_crossing(self):
        logic = PriceAlarmLogic(thresholds={3: 15.0})
        state = make_state()
        txns = [txn(10.0), txn(16.0), txn(17.0), txn(14.0), txn(18.0)]
        logic.process(batch(key=3, count=5, payload=txns), state)
        assert len(logic.alarms) == 2  # 16.0 crossing and 18.0 re-crossing

    def test_price_alarm_ignores_unwatched_stock(self):
        logic = PriceAlarmLogic(thresholds={})
        state = make_state()
        logic.process(batch(key=3, count=1, payload=[txn(100.0)]), state)
        assert logic.alarms == []

    def test_price_alarm_dense_thresholds_fire(self):
        logic = PriceAlarmLogic(thresholds=np.array([50.0, 15.0, 50.0]))
        logic.process(batch(key=1, count=1, payload=[txn(16.0)]), make_state())
        assert len(logic.alarms) == 1

    # key = len(thresholds), and -1, which numpy would wrap to the last
    # stock's threshold.
    @pytest.mark.parametrize("key", [3, -1])
    def test_price_alarm_dense_key_outside_array_is_unwatched(self, key):
        logic = PriceAlarmLogic(thresholds=np.array([50.0, 50.0, 15.0]))
        logic.process(batch(key=key, count=1, payload=[txn(100.0)]), make_state())
        assert logic.alarms == []

    def test_price_alarm_rejects_non_1d_thresholds(self):
        with pytest.raises(ValueError, match="1-D"):
            PriceAlarmLogic(thresholds=np.full((2, 3), 15.0))

    def test_price_alarm_dense_thresholds_are_read_only(self):
        source = np.array([15.0, 20.0])
        logic = PriceAlarmLogic(thresholds=source)
        with pytest.raises(ValueError):
            logic.thresholds[0] = 1.0
        assert source.flags.writeable  # the caller's array is untouched

    def test_fraud_self_trade_flagged(self):
        logic = FraudDetectionLogic()
        state = make_state()
        logic.process(
            batch(key=3, count=1, payload=[txn(10.0, buyer=5, seller=5)]), state
        )
        assert logic.flags[0][1] == "self-trade"

    def test_fraud_wash_pair_flagged(self):
        logic = FraudDetectionLogic(pair_window=10.0, pair_threshold=3)
        state = make_state()
        txns = [txn(10.0, time=float(i), buyer=1, seller=2) for i in range(3)]
        logic.process(batch(key=3, count=3, payload=txns), state)
        assert any(kind == "wash-pair" for _, kind, _ in logic.flags)

    def test_fraud_slow_trading_not_flagged(self):
        logic = FraudDetectionLogic(pair_window=1.0, pair_threshold=3)
        state = make_state()
        txns = [txn(10.0, time=float(i * 100), buyer=1, seller=2) for i in range(5)]
        logic.process(batch(key=3, count=5, payload=txns), state)
        assert logic.flags == []

    def test_cost_model(self):
        logic = TradeStatisticsLogic(cost_per_record=1e-3)
        assert logic.cpu_seconds(batch(count=20)) == pytest.approx(0.02)

    def test_cost_only_mode_is_noop(self):
        logic = TradeStatisticsLogic()
        state = make_state()
        assert logic.process(batch(payload=None), state) == []
