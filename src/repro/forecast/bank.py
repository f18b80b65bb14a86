"""Per-series forecaster collection with forecast-vs-actual accounting.

The scheduler tracks one rate series per executor.  A :class:`ForecastBank`
owns one :class:`~repro.forecast.holt.HoltForecaster` per named series
(created lazily, every series with the same smoothing factors), and
scores each round's one-step-ahead forecast against the observation that
arrives next — the forecast-error telemetry surfaced as the
``forecast_abs_error`` gauge.
"""

from __future__ import annotations

import typing

from repro.forecast.holt import HoltForecaster


class ForecastBank:
    """Named forecasters plus one-step forecast-error bookkeeping."""

    def __init__(
        self, alpha: float = 0.5, beta: float = 0.3, horizon: int = 1
    ) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.alpha = alpha
        self.beta = beta
        self.horizon = horizon
        self._forecasters: typing.Dict[str, HoltForecaster] = {}
        self._error_sum: typing.Dict[str, float] = {}
        self._error_count: typing.Dict[str, int] = {}

    def forecaster(self, name: str) -> HoltForecaster:
        """The (lazily created) forecaster behind series ``name``."""
        forecaster = self._forecasters.get(name)
        if forecaster is None:
            forecaster = self._forecasters[name] = HoltForecaster(
                self.alpha, self.beta
            )
        return forecaster

    def observe(self, name: str, value: float) -> None:
        """Score the standing one-step forecast against ``value``, then
        absorb ``value`` into the series' forecaster."""
        forecaster = self.forecaster(name)
        if forecaster.observations > 0:
            error = abs(forecaster.forecast(1) - value)
            self._error_sum[name] = self._error_sum.get(name, 0.0) + error
            self._error_count[name] = self._error_count.get(name, 0) + 1
        forecaster.update(value)

    def predict(self, name: str) -> float:
        """Peak forecast over the bank's horizon, clamped at zero (a
        negative extrapolated rate means "idle", not "negative work")."""
        forecaster = self._forecasters.get(name)
        if forecaster is None or forecaster.observations == 0:
            return 0.0
        return max(0.0, forecaster.peak(self.horizon))

    def abs_error(self, name: str) -> float:
        """Mean absolute one-step error of series ``name``."""
        count = self._error_count.get(name, 0)
        if not count:
            return 0.0
        return self._error_sum[name] / count

    def names(self) -> typing.List[str]:
        return sorted(self._forecasters)

    def mean_abs_error(self) -> float:
        """Mean absolute one-step error across all scored series."""
        scored = [name for name in self._error_count if self._error_count[name]]
        if not scored:
            return 0.0
        return sum(self.abs_error(name) for name in scored) / len(scored)
