"""Forecasting layer: convergence, horizons, rejection, determinism."""

import hashlib
import math

import pytest

from repro.forecast import ForecastBank, HoltForecaster
from repro.scheduler.strategies import PredictiveStrategy


def level_only(alpha):
    """Holt with ``beta=0``: the trend stays 0, leaving a plain EWMA."""
    return HoltForecaster(alpha=alpha, beta=0.0)


class TestEWMA:
    def test_validates_alpha(self):
        with pytest.raises(ValueError):
            level_only(0.0)
        with pytest.raises(ValueError):
            level_only(1.5)

    def test_seeds_with_first_observation(self):
        f = level_only(0.3)
        f.update(42.0)
        assert f.forecast() == 42.0

    def test_converges_on_step_series(self):
        f = level_only(0.5)
        f.fit([10.0] * 5 + [100.0] * 30)
        assert f.forecast() == pytest.approx(100.0, rel=1e-3)

    def test_alpha_one_tracks_last_value(self):
        f = level_only(1.0)
        f.fit([1.0, 7.0, 3.0])
        assert f.forecast() == 3.0

    def test_flat_forecast_at_any_horizon(self):
        f = level_only(0.5)
        f.fit([5.0, 6.0, 7.0])
        assert f.forecast(1) == f.forecast(10)

    def test_lags_on_ramp(self):
        # Without a trend term a ramp is underestimated, which is
        # exactly the deficiency beta > 0 fixes.
        f = level_only(0.5)
        f.fit([float(i) for i in range(1, 21)])
        assert f.forecast() < 20.0


class TestHoltWinters:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            HoltForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            HoltForecaster(beta=1.5)
        with pytest.raises(ValueError):
            HoltForecaster(beta=-0.1)

    def test_tracks_ramp(self):
        # On a linear ramp the trend term locks on: the one-step
        # forecast leads the last observation instead of lagging it.
        f = HoltForecaster(alpha=0.5, beta=0.3)
        series = [10.0 + 3.0 * i for i in range(40)]
        f.fit(series)
        assert f.forecast(1) == pytest.approx(series[-1] + 3.0, rel=0.05)
        assert f.forecast(5) == pytest.approx(series[-1] + 5 * 3.0, rel=0.05)

    def test_converges_on_step_series(self):
        f = HoltForecaster(alpha=0.5, beta=0.3)
        f.fit([10.0] * 5 + [100.0] * 50)
        assert f.forecast() == pytest.approx(100.0, rel=1e-2)

    def test_peak_is_max_over_horizons(self):
        f = HoltForecaster(alpha=0.3, beta=0.2)
        f.fit([1.0, 2.0, 3.0, 4.0])
        assert f.peak(4) == max(f.forecast(h) for h in (1, 2, 3, 4))
        with pytest.raises(ValueError):
            f.peak(0)


class TestForecasterContract:
    """Behaviours that hold for every smoothing configuration."""

    FACTORIES = [
        lambda: level_only(0.4),
        lambda: HoltForecaster(alpha=0.4, beta=0.2),
        lambda: HoltForecaster(),  # the predictive scheduler's 0.5 / 0.3
    ]

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_empty_series_forecasts_zero(self, factory):
        f = factory()
        assert f.forecast() == 0.0
        assert f.peak(3) == 0.0

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_negative_horizon_rejected(self, factory):
        f = factory()
        f.update(1.0)
        with pytest.raises(ValueError):
            f.forecast(-1)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_horizon_zero_is_fitted_level(self, factory):
        f = factory()
        f.fit([5.0] * 20)
        assert f.forecast(0) == pytest.approx(5.0, rel=1e-6)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_non_finite_values_rejected_and_counted(self, factory):
        f = factory()
        f.fit([3.0, float("nan"), float("inf"), -float("inf"), 3.0])
        assert f.observations == 2
        assert f.rejected == 3
        assert math.isfinite(f.forecast())
        assert f.forecast() == pytest.approx(3.0)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_incremental_equals_batch(self, factory):
        """Replay determinism: state is a pure fold over observations."""
        series = [float((7 * i) % 13) + 0.25 for i in range(50)]
        batch = factory().fit(series)
        incremental = factory()
        for value in series:
            incremental.update(value)
        for h in range(0, 6):
            assert batch.forecast(h) == incremental.forecast(h)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_repeated_fits_bit_identical(self, factory):
        series = [math.sin(i / 3.0) * 10.0 + 20.0 for i in range(80)]
        a = factory().fit(series)
        b = factory().fit(series)
        assert a.forecast(3) == b.forecast(3)


class TestForecastBank:
    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            ForecastBank(horizon=0)

    def test_predict_unknown_series_is_zero(self):
        bank = ForecastBank(horizon=2)
        assert bank.predict("nope") == 0.0
        assert bank.abs_error("nope") == 0.0

    def test_scores_one_step_error_before_updating(self):
        bank = ForecastBank(alpha=1.0, beta=0.0, horizon=1)
        bank.observe("x", 10.0)  # first observation: nothing to score
        assert bank.abs_error("x") == 0.0
        bank.observe("x", 16.0)  # forecast was 10 -> error 6
        assert bank.abs_error("x") == pytest.approx(6.0)

    def test_predict_clamps_negative_forecasts(self):
        bank = ForecastBank(alpha=0.9, beta=0.9, horizon=5)
        for value in (100.0, 50.0, 10.0, 1.0):
            bank.observe("down", value)
        assert bank.predict("down") >= 0.0

    def test_names_sorted_and_mean_error(self):
        bank = ForecastBank(alpha=1.0, beta=0.0, horizon=1)
        for name in ("b", "a"):
            bank.observe(name, 1.0)
            bank.observe(name, 3.0)
        assert bank.names() == ["a", "b"]
        assert bank.mean_abs_error() == pytest.approx(2.0)


#: A ramp, a dip to zero, a spike, and two non-finite observations.
GOLDEN_SERIES = [
    100.0, 120.0, 150.0, float("nan"), 190.0, 260.0, 250.0, 400.0,
    390.0, 380.0, 0.0, 50.0, 700.0, 640.0, float("inf"), 655.5,
]


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


class TestGolden:
    """Exact forecasts, pinned as float hex digests: any change to the
    smoothing arithmetic or its defaults shows up here bit for bit."""

    def test_default_forecaster(self):
        f = HoltForecaster()
        rows = []
        for x in GOLDEN_SERIES:
            f.update(x)
            rows.append(
                (f.forecast(0).hex(), f.forecast(1).hex(), f.peak(3).hex())
            )
        assert digest(rows) == "bfabb51d5e80dcd3"
        assert f.rejected == 2

    def test_tuned_predictive_strategy(self):
        strategy = PredictiveStrategy(alpha=0.8, beta=0.6, horizon=5)
        rows = []
        for i, x in enumerate(GOLDEN_SERIES):
            strategy.observe("e0", i, x)
            strategy.observe("e1", i, 0.5 * x + 3)
            rows.append((
                strategy.demand("e0", 10.0).hex(),
                strategy.demand("e1", 10.0).hex(),
                strategy.forecast_error().hex(),
            ))
        assert digest(rows) == "16b9d11ee5a52197"

    def test_default_predictive_strategy(self):
        strategy = PredictiveStrategy()
        rows = []
        for i, x in enumerate(GOLDEN_SERIES):
            strategy.observe("e0", i, x)
            rows.append((
                strategy.demand("e0", 10.0).hex(),
                strategy.forecast_error().hex(),
            ))
        assert digest(rows) == "f1ea3c115a4f8e27"
