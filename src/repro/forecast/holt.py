"""Holt's linear exponential smoothing: a level plus a trend.

The trend term lets a steadily ramping arrival rate extrapolate forward
instead of lagging, so the predictive scheduler can allocate cores
*before* a ramp crosses capacity.

The forecaster consumes one scalar observation per *step* (one measured
arrival rate per scheduling round) and answers horizon-``h`` questions:
"what will the series be ``h`` steps from now?"  Constraints inherited
from the simulator's determinism promise:

- **Replay safety.** State is a pure fold over the observation sequence
  (no wall clock, no RNG), so feeding a series incrementally or via
  :meth:`HoltForecaster.fit` yields bit-identical state.
- **Garbage tolerance.** Metric pipelines occasionally produce NaN/inf
  (a rate over an empty window, a division warm-up artifact).  Non-finite
  observations are counted and dropped rather than poisoning the state.
- **Cheap.** O(1) per update and per forecast; the scheduler calls these
  every round for every executor.
"""

from __future__ import annotations

import math
import typing


class HoltForecaster:
    """Level + trend smoothing with horizon-``h`` forecasts."""

    def __init__(self, alpha: float = 0.5, beta: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self.alpha = alpha
        self.beta = beta
        self.level = 0.0
        self.trend = 0.0
        #: Finite observations absorbed so far.
        self.observations: int = 0
        #: Non-finite observations dropped (NaN/inf guard).
        self.rejected: int = 0

    def update(self, value: float) -> None:
        """Absorb one observation.  Non-finite values are dropped."""
        if not math.isfinite(value):
            self.rejected += 1
            return
        self.observations += 1
        if self.observations == 1:
            # Seed the level with the first observation instead of
            # decaying up from 0.
            self.level = value
            return
        previous_level = self.level
        self.level = (
            self.alpha * value + (1.0 - self.alpha) * (self.level + self.trend)
        )
        self.trend = (
            self.beta * (self.level - previous_level)
            + (1.0 - self.beta) * self.trend
        )

    def fit(self, values: typing.Iterable[float]) -> "HoltForecaster":
        """Batch update: exactly equivalent to calling :meth:`update` per
        value, in order."""
        for value in values:
            self.update(value)
        return self

    def forecast(self, horizon: int = 1) -> float:
        """Predicted value ``horizon`` steps ahead.

        ``horizon=0`` is the current fitted level.  With no observations
        yet every forecast is 0.0: the scheduler treats an unobserved
        executor as idle, exactly like the reactive measurement path.
        """
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if self.observations == 0:
            return 0.0
        return self.level + horizon * self.trend

    def peak(self, horizon: int) -> float:
        """Max forecast over steps ``1..horizon`` (predictive demand
        provisions for the worst point of the window, not its end)."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if self.observations == 0:
            return 0.0
        return max(self.level + step * self.trend for step in range(1, horizon + 1))
