"""Per-executor / per-shard metric registry with ring-buffered series.

The registry holds two kinds of instruments:

- :class:`RingSeries` — bounded (time, value) series.  When full, the
  oldest chunk is dropped so a long-running system keeps a recent window
  instead of growing without bound.
- gauges — callables sampled by the telemetry sampler process on a
  configurable interval into a ring series (arrival rate, service rate,
  queue depth, core allocation, ...).

Counters already exist elsewhere in the system (``ExecutorMetrics``,
``RecoveryStats``); the registry snapshots them rather than duplicating
their bookkeeping.
"""

from __future__ import annotations

import typing

Labels = typing.Tuple[typing.Tuple[str, str], ...]


class GaugeError(RuntimeError):
    """A registered gauge raised while being sampled (names the gauge)."""


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
        record_row((self,), time, (value,))

    def to_rows(self) -> typing.List[typing.Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def label_text(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.labels)

    def __repr__(self) -> str:
        return f"RingSeries({self.name!r}, {self.label_text()!r}, n={len(self)})"


def record_row(
    series: typing.Iterable[RingSeries],
    time: float,
    values: typing.Iterable[float],
) -> None:
    """Record ``values[i]`` into ``series[i]`` at ``time``, in order.

    Exactly ``ring.record(time, value)`` for each pair, without a call
    frame per point: the sampler writes a whole tick this way.
    """
    for ring, value in zip(series, values):
        times = ring._times
        stored = ring._values
        if times:
            if time < times[-1]:
                raise ValueError(
                    f"timestamps must be nondecreasing ({time} < {times[-1]})"
                )
            if len(times) >= ring.capacity:
                chunk = max(1, ring.capacity // 8)
                del times[:chunk]
                del stored[:chunk]
                ring.dropped += chunk
        times.append(time)
        stored.append(value)


class _Gauge:
    __slots__ = ("series", "fn")

    def __init__(self, series: RingSeries, fn: typing.Callable[[], float]) -> None:
        self.series = series
        self.fn = fn


class MetricRegistry:
    """Named, labeled series plus the gauges sampled into them."""

    def __init__(self, ring_capacity: int = 4096) -> None:
        self.ring_capacity = ring_capacity
        self._series: typing.Dict[typing.Tuple[str, Labels], RingSeries] = {}
        self._gauges: typing.Dict[typing.Tuple[str, Labels], _Gauge] = {}

    def series(self, name: str, **labels: typing.Any) -> RingSeries:
        """Get or create the series for (name, labels)."""
        key = (name, _labels_key(labels))
        series = self._series.get(key)
        if series is None:
            series = RingSeries(name, key[1], capacity=self.ring_capacity)
            self._series[key] = series
        return series

    def register_gauge(
        self, name: str, fn: typing.Callable[[], float], **labels: typing.Any
    ) -> RingSeries:
        """Sample ``fn()`` into ``series(name, **labels)`` on every tick.

        Re-registering the same (name, labels) replaces the callable —
        executor churn (RC create/delete, restarts) keeps one series per
        executor name across incarnations.
        """
        series = self.series(name, **labels)
        self._gauges[(name, series.labels)] = _Gauge(series, fn)
        return series

    def unregister_gauge(self, name: str, **labels: typing.Any) -> None:
        self._gauges.pop((name, _labels_key(labels)), None)

    def sample(self, now: float) -> None:
        """One sampler tick: evaluate every gauge at virtual time ``now``.

        A gauge that raises fails the tick, and so the run, with a
        :class:`GaugeError` naming it (the flight-recorder dump's reason)
        rather than leaving a silent gap in the series.
        """
        gauges = list(self._gauges.values())
        values: typing.List[float] = []
        try:
            for gauge in gauges:
                values.append(float(gauge.fn()))
        except Exception as exc:
            series = gauge.series
            raise GaugeError(
                f"gauge {series.name}{{{series.label_text()}}} failed at "
                f"t={now}: {type(exc).__name__}: {exc}"
            ) from exc
        record_row([gauge.series for gauge in gauges], now, values)

    def all_series(self) -> typing.List[RingSeries]:
        return [
            self._series[key]
            for key in sorted(self._series, key=lambda k: (k[0], k[1]))
        ]

    def snapshot(self) -> typing.Dict[str, typing.Dict[str, float]]:
        """name -> {label_text -> last value} for the Prometheus dump."""
        out: typing.Dict[str, typing.Dict[str, float]] = {}
        for series in self.all_series():
            if series.last is None:
                continue
            out.setdefault(series.name, {})[series.label_text()] = series.last
        return out
