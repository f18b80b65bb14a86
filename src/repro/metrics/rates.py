"""Virtual-time rate estimators.

The dynamic scheduler needs per-executor arrival rates (λ_j) and service
rates (µ_j) measured over the recent past.  :class:`WindowedRate` provides
an exact sliding-window rate; :class:`EWMA` provides a smoothed scalar
estimate (used for per-tuple CPU cost and shard workload statistics).
"""

from __future__ import annotations

import collections
import math


class WindowedRate:
    """Exact event rate over a sliding window of virtual time.

    Observations are (time, count) pairs; :meth:`rate` prunes observations
    older than the window and returns events/second.
    """

    __slots__ = ("window", "_events", "_sum")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._events: collections.deque = collections.deque()
        self._sum = 0.0

    def record(self, now: float, count: float = 1.0) -> None:
        # Inlined prune: record() runs once per batch on the data plane,
        # and the deque head is almost always inside the window already.
        events = self._events
        events.append((now, count))
        total = self._sum + count
        horizon = now - self.window
        while events[0][0] <= horizon:
            total -= events.popleft()[1]
        self._sum = total

    def rate(self, now: float) -> float:
        """Events per second over the trailing window ending at ``now``."""
        self._prune(now)
        return self._sum / self.window

    def count(self, now: float) -> float:
        """Raw event count inside the window."""
        self._prune(now)
        return self._sum

    def _prune(self, now: float) -> None:
        horizon = now - self.window
        events = self._events
        while events and events[0][0] <= horizon:
            _, count = events.popleft()
            self._sum -= count


class PairedWindowedRate:
    """Two sliding-window rates sharing one timestamped deque.

    The executor data plane records a (tuple-count, byte-count) pair per
    batch; keeping both in a single deque halves the append/prune traffic
    versus two :class:`WindowedRate` instances fed the same timestamps.
    """

    __slots__ = ("window", "_events", "_sum_a", "_sum_b")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._events: collections.deque = collections.deque()
        self._sum_a = 0.0
        self._sum_b = 0.0

    def record(self, now: float, a: float, b: float) -> None:
        events = self._events
        events.append((now, a, b))
        total_a = self._sum_a + a
        total_b = self._sum_b + b
        horizon = now - self.window
        while events[0][0] <= horizon:
            _, old_a, old_b = events.popleft()
            total_a -= old_a
            total_b -= old_b
        self._sum_a = total_a
        self._sum_b = total_b

    def _prune(self, now: float) -> None:
        horizon = now - self.window
        events = self._events
        while events and events[0][0] <= horizon:
            _, old_a, old_b = events.popleft()
            self._sum_a -= old_a
            self._sum_b -= old_b

    def rate_a(self, now: float) -> float:
        self._prune(now)
        return self._sum_a / self.window

    def rate_b(self, now: float) -> float:
        self._prune(now)
        return self._sum_b / self.window


class EWMA:
    """Exponentially weighted moving average with a virtual-time half-life.

    The decay is computed from elapsed virtual time rather than a sample
    count, so estimates stay meaningful under bursty observation patterns.
    """

    __slots__ = ("_decay_rate", "_value", "_last_time", "_initialized")

    def __init__(self, half_life: float, initial: float = 0.0) -> None:
        if half_life <= 0:
            raise ValueError(f"half_life must be positive, got {half_life}")
        self._decay_rate = math.log(2.0) / half_life
        self._value = float(initial)
        self._last_time: float = None  # type: ignore[assignment]
        self._initialized = False

    @property
    def value(self) -> float:
        return self._value

    def update(self, now: float, sample: float) -> float:
        """Blend ``sample`` in; the weight of history decays with elapsed time.

        A sample equal to the value skips the blend: ``value + alpha *
        0.0`` is exactly ``value`` for every finite value but -0.0, so
        only the time is stored.  On the data plane (a constant per-tuple
        cost) nearly every update takes this path, which the task commit
        runs inline and calls this method only for the others.
        """
        if not self._initialized:
            self._value = float(sample)
            self._last_time = now
            self._initialized = True
            return self._value
        if sample == self._value:
            self._last_time = now
            return self._value
        elapsed = max(0.0, now - self._last_time)
        alpha = 1.0 - math.exp(-self._decay_rate * elapsed) if elapsed > 0 else 0.5
        self._value += alpha * (sample - self._value)
        self._last_time = now
        return self._value
