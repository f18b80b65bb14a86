"""Forecaster contract shared by every predictor in :mod:`repro.forecast`.

A forecaster consumes one scalar observation per *step* (the scheduler
feeds it one measured arrival rate per scheduling round) and answers
horizon-``h`` questions: "what will the series be ``h`` steps from now?"

Design constraints, inherited from the simulator's determinism promise:

- **Replay safety.** Updates are a pure function of the observation
  sequence — no wall clock, no RNG, no hidden global state.  Feeding the
  same series incrementally or via :meth:`fit` yields bit-identical
  internal state, which the forecast unit tests pin down exactly.
- **Garbage tolerance.** Metric pipelines occasionally produce NaN/inf
  (a rate over an empty window, a division warm-up artifact).  Non-finite
  observations are counted and dropped rather than poisoning the state.
- **Cheap.** O(1) per update, O(1) per forecast; the scheduler calls
  these every round for every executor.
"""

from __future__ import annotations

import abc
import math
import typing


class Forecaster(abc.ABC):
    """Incremental one-series predictor with horizon-``h`` forecasts."""

    def __init__(self) -> None:
        #: Finite observations absorbed so far.
        self.observations: int = 0
        #: Non-finite observations dropped (NaN/inf guard).
        self.rejected: int = 0

    # -- updating ----------------------------------------------------------

    def update(self, value: float) -> None:
        """Absorb one observation.  Non-finite values are dropped."""
        if not math.isfinite(value):
            self.rejected += 1
            return
        self.observations += 1
        self._absorb(value)

    def fit(self, values: typing.Iterable[float]) -> "Forecaster":
        """Batch update: exactly equivalent to calling :meth:`update` per
        value, in order — the incremental-vs-batch determinism contract."""
        for value in values:
            self.update(value)
        return self

    # -- forecasting -------------------------------------------------------

    def forecast(self, horizon: int = 1) -> float:
        """Predicted value ``horizon`` steps ahead.

        ``horizon=0`` is the identity point: the model's current fitted
        level (what it believes the series is *right now*).  With no
        observations yet every forecast is 0.0 — the caller (the
        scheduler) treats an unobserved executor as idle, exactly like
        the reactive measurement path does.
        """
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if self.observations == 0:
            return 0.0
        return self._project(horizon)

    def peak(self, horizon: int) -> float:
        """Max forecast over steps ``1..horizon`` (predictive demand
        provisions for the worst point of the window, not its end)."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if self.observations == 0:
            return 0.0
        return max(self._project(step) for step in range(1, horizon + 1))

    # -- model hooks -------------------------------------------------------

    @abc.abstractmethod
    def _absorb(self, value: float) -> None:
        """Model-specific update with a guaranteed-finite observation."""

    @abc.abstractmethod
    def _project(self, horizon: int) -> float:
        """Model-specific forecast; called only after >= 1 observation."""
