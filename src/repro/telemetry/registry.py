"""Named, labeled metric series held in bounded rings.

A :class:`RingSeries` is a bounded (time, value) series: when full, the
oldest chunk is dropped so a long-running system keeps a recent window
instead of growing without bound.  The telemetry sampler
(:mod:`repro.telemetry.core`) records one ``executor_cores`` series per
executor into a :class:`MetricRegistry`; ``series.csv`` exports them.

Counters already exist elsewhere in the system (``ExecutorMetrics``,
``RecoveryStats``); the registry does not duplicate their bookkeeping.
"""

from __future__ import annotations

import typing

Labels = typing.Tuple[typing.Tuple[str, str], ...]


def _labels_key(labels: typing.Mapping[str, typing.Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class RingSeries:
    """Append-only (time, value) series bounded at ``capacity`` points.

    Trimming drops ``capacity // 8`` points at once so appends stay
    amortized O(1) instead of shifting the list on every record.
    """

    __slots__ = ("name", "labels", "capacity", "dropped", "_times", "_values")

    def __init__(self, name: str, labels: Labels = (), capacity: int = 4096) -> None:
        if capacity < 8:
            raise ValueError("capacity must be >= 8")
        self.name = name
        self.labels = labels
        self.capacity = capacity
        self.dropped = 0
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

    @property
    def last(self) -> typing.Optional[float]:
        return self._values[-1] if self._values else None

    def record(self, time: float, value: float) -> None:
        times = self._times
        if times:
            if time < times[-1]:
                raise ValueError(
                    f"timestamps must be nondecreasing ({time} < {times[-1]})"
                )
            if len(times) >= self.capacity:
                chunk = max(1, self.capacity // 8)
                del times[:chunk]
                del self._values[:chunk]
                self.dropped += chunk
        times.append(time)
        self._values.append(value)

    def to_rows(self) -> typing.List[typing.Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def label_text(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.labels)

    def __repr__(self) -> str:
        return f"RingSeries({self.name!r}, {self.label_text()!r}, n={len(self)})"


class MetricRegistry:
    """Named, labeled series, created on first use."""

    def __init__(self, ring_capacity: int = 4096) -> None:
        self.ring_capacity = ring_capacity
        self._series: typing.Dict[typing.Tuple[str, Labels], RingSeries] = {}

    def series(self, name: str, **labels: typing.Any) -> RingSeries:
        """Get or create the series for (name, labels)."""
        key = (name, _labels_key(labels))
        series = self._series.get(key)
        if series is None:
            series = RingSeries(name, key[1], capacity=self.ring_capacity)
            self._series[key] = series
        return series

    def all_series(self) -> typing.List[RingSeries]:
        return [
            self._series[key]
            for key in sorted(self._series, key=lambda k: (k[0], k[1]))
        ]
