"""Deterministic demand forecasting over metric rate series.

The predictive scheduler paradigm (docs/scheduling.md) feeds each
executor's measured arrival rate — one observation per scheduling round —
into a per-executor :class:`HoltForecaster` and allocates cores against
the horizon-``h`` *predicted* demand instead of the last measurement.

Everything here is replay-safe by construction: state is a pure fold
over the observation sequence (no wall clock, no RNG), so the same
seeded run produces bit-identical forecasts, and incremental vs batch
fitting agree exactly.
"""

from repro.forecast.bank import ForecastBank
from repro.forecast.holt import HoltForecaster

__all__ = ["ForecastBank", "HoltForecaster"]
