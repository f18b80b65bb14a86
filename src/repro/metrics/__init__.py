"""Measurement primitives used across the system.

The paper's prototype instruments each elastic executor with performance
metrics (arrival rate, service rate, data intensity, state size) that feed
the dynamic scheduler, plus system-wide accounting (state-migration bytes,
remote-transfer bytes) used in the evaluation.  This package provides the
corresponding virtual-time-aware meters.
"""

from repro.metrics.counters import Counter
from repro.metrics.rates import EWMA, PairedWindowedRate, WindowedRate
from repro.metrics.recovery import RecoveryEvent, RecoveryStats
from repro.metrics.timeseries import TimeSeries

__all__ = [
    "Counter",
    "EWMA",
    "PairedWindowedRate",
    "RecoveryEvent",
    "RecoveryStats",
    "TimeSeries",
    "WindowedRate",
]
