"""Append-only time series with windowed aggregation helpers."""

from __future__ import annotations

import bisect
import typing


class TimeSeries:
    """(time, value) observations in nondecreasing time order.

    Used to record instantaneous throughput, per-stock arrival rates and
    similar timelines for the figure benchmarks.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: typing.List[float] = []
        self._values: typing.List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> typing.Tuple[float, ...]:
        return tuple(self._times)

    @property
    def values(self) -> typing.Tuple[float, ...]:
        return tuple(self._values)

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"timestamps must be nondecreasing ({time} < {self._times[-1]})"
            )
        self._times.append(time)
        self._values.append(value)

    def window_sum(self, start: float, end: float) -> float:
        """Sum of values with timestamps in ``[start, end)``."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return sum(self._values[lo:hi])

    def to_rows(self) -> typing.List[typing.Tuple[float, float]]:
        return list(zip(self._times, self._values))
