"""Unit and property tests for the metrics package."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import EWMA, Counter, TimeSeries, WindowedRate


class TestCounter:
    def test_add_and_total(self):
        counter = Counter()
        counter.add()
        counter.add(5)
        assert counter.total == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add(-1)


class TestWindowedRate:
    def test_rate_over_window(self):
        meter = WindowedRate(window=10.0)
        for t in range(10):
            meter.record(float(t), 5)
        assert meter.rate(10.0) == pytest.approx(4.5)  # t=0 fell off

    def test_old_events_pruned(self):
        meter = WindowedRate(window=1.0)
        meter.record(0.0, 100)
        assert meter.rate(5.0) == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowedRate(window=0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=10),
            ),
            max_size=50,
        )
    )
    def test_rate_matches_bruteforce(self, events):
        events.sort()
        meter = WindowedRate(window=7.0)
        for t, n in events:
            meter.record(t, n)
        now = 100.0
        expected = sum(n for t, n in events if t > now - 7.0) / 7.0
        assert meter.rate(now) == pytest.approx(expected)


class TestEWMA:
    def test_first_sample_adopted(self):
        ewma = EWMA(half_life=10.0)
        assert ewma.update(0.0, 42.0) == 42.0

    def test_converges_toward_samples(self):
        ewma = EWMA(half_life=1.0)
        ewma.update(0.0, 0.0)
        for t in range(1, 50):
            ewma.update(float(t), 10.0)
        assert ewma.value == pytest.approx(10.0, abs=1e-6)

    def test_half_life_semantics(self):
        ewma = EWMA(half_life=5.0)
        ewma.update(0.0, 0.0)
        ewma.update(5.0, 10.0)  # exactly one half-life later
        assert ewma.value == pytest.approx(5.0)

    def test_invalid_half_life(self):
        with pytest.raises(ValueError):
            EWMA(half_life=0.0)

    @given(
        # Every finite value but -0.0 (the blend turns it into +0.0).
        value=st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda v: math.copysign(1.0, v) > 0.0 or v != 0.0
        ),
        elapsed=st.floats(0.0, 1e6),
        half_life=st.floats(1e-3, 1e3),
    )
    def test_equal_sample_update_matches_the_full_blend(
        self, value, elapsed, half_life
    ):
        # The blend written out: what update() computes for any sample.
        decay_rate = math.log(2.0) / half_life
        alpha = 1.0 - math.exp(-decay_rate * elapsed) if elapsed > 0 else 0.5
        expected = value + alpha * (value - value)
        ewma = EWMA(half_life=half_life)
        ewma.update(1.0, value)
        assert ewma.update(1.0 + elapsed, value) == expected
        assert struct.pack("<d", ewma.value) == struct.pack("<d", expected)
        assert ewma._last_time == 1.0 + elapsed


class TestTimeSeries:
    def test_record_and_window_sum(self):
        series = TimeSeries("throughput")
        for t in range(10):
            series.record(float(t), 2.0)
        assert series.window_sum(0.0, 5.0) == 10.0
        assert series.window_sum(5.0, 10.0) == 10.0

    def test_nondecreasing_enforced(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 1.0)

