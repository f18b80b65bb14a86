"""Scheduling strategies: how one scheduler round turns measurements
into a core plan.

The :class:`~repro.scheduler.scheduler.DynamicScheduler` daemon owns the
round *mechanics* (measure, damp, diff, apply); a strategy owns the
round *policy* at two hook points:

- :meth:`~SchedulingStrategy.demand` — what λ to model an executor at
  (reactive: the inflated measurement; predictive: the forecast peak);
- :meth:`~SchedulingStrategy.assign` — how to place the granted cores
  (Algorithm 1, naive round-robin, or dominant-remaining-resource).

Three strategies ship (docs/scheduling.md): ``reactive`` (the paper's
Elasticutor scheduler), ``naive-ec`` (the §5.4 ablation) and
``predictive`` (Elasecutor-style forecast-driven allocation).
"""

from __future__ import annotations

import typing

from repro.forecast import ForecastBank
from repro.scheduler.assignment import (
    AssignmentInput,
    NaiveAssigner,
    solve_assignment,
)
from repro.scheduler.predictive import drr_assignment

#: CLI / config names, in presentation order.
STRATEGY_NAMES = ("reactive", "predictive", "naive-ec")

AssignmentMatrix = typing.Dict[str, typing.Dict[int, int]]

#: Predictive demand multiplier on the forecast peak: the same imbalance
#: headroom the reactive path applies to measurements.
HEADROOM = 1.2


class SchedulingStrategy:
    """Base strategy: the paper's reactive measure-then-model policy."""

    name = "reactive"
    #: From-scratch placement briefly double-holds relocating executors'
    #: cores; strategies doing it need budget slack for the transition.
    needs_transition_slack = False

    def observe(self, name: str, now: float, measured: float) -> None:
        """One executor's raw measured arrival rate this round."""

    def demand(self, name: str, arrival: float) -> float:
        """The λ to model ``name`` at.  ``arrival`` is the measured rate
        with the scheduler's headroom/congestion inflation applied."""
        return arrival

    def assign(
        self, inp: AssignmentInput
    ) -> typing.Tuple[AssignmentMatrix, float]:
        """Place the granted cores; returns (matrix, φ actually used)."""
        return solve_assignment(inp)

    def forecast_error(self) -> float:
        """Mean absolute one-step forecast error (0.0 when not forecasting)."""
        return 0.0


class ReactiveStrategy(SchedulingStrategy):
    """The default: allocate by measured demand, place by Algorithm 1."""


class NaiveECStrategy(SchedulingStrategy):
    """The paper's naive-EC ablation: from-scratch round-robin placement."""

    name = "naive-ec"
    needs_transition_slack = True

    def assign(
        self, inp: AssignmentInput
    ) -> typing.Tuple[AssignmentMatrix, float]:
        return NaiveAssigner().assign(inp), float("inf")


class PredictiveStrategy(SchedulingStrategy):
    """Allocate by forecast demand, place by dominant remaining resource.

    Each executor's measured arrival rate feeds a Holt forecaster; the
    modeled demand is the *peak* forecast over the next ``horizon``
    rounds (times the same imbalance headroom the reactive path applies
    to measurements), floored at the measurement so a forecaster that
    lags a step change can never under-provision below the reactive
    baseline.
    """

    name = "predictive"

    def __init__(
        self, alpha: float = 0.5, beta: float = 0.3, horizon: int = 3
    ) -> None:
        self.bank = ForecastBank(alpha=alpha, beta=beta, horizon=horizon)

    def observe(self, name: str, now: float, measured: float) -> None:
        self.bank.observe(name, measured)

    def demand(self, name: str, arrival: float) -> float:
        return max(arrival, self.bank.predict(name) * HEADROOM)

    def assign(
        self, inp: AssignmentInput
    ) -> typing.Tuple[AssignmentMatrix, float]:
        return drr_assignment(inp), inp.phi

    def forecast_error(self) -> float:
        return self.bank.mean_abs_error()


def make_strategy(name: str) -> SchedulingStrategy:
    """Build a strategy by CLI/config name (see :data:`STRATEGY_NAMES`)."""
    if name == "reactive":
        return ReactiveStrategy()
    if name == "naive-ec":
        return NaiveECStrategy()
    if name == "predictive":
        return PredictiveStrategy()
    raise ValueError(
        f"unknown scheduler strategy {name!r}; choose from {STRATEGY_NAMES}"
    )
