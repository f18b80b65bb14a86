"""Calibrated clock: wall seconds rescaled to the reference machine's speed.

The machine the reference results come from changes speed by up to
~1.9x over seconds to minutes, from contention outside the VM (no steal
time shows), so raw wall times spread by 10-34% across seeds (the
``wall.*`` rows of ``results/spread-*.json``).  A child therefore times a fixed interpreter
kernel every 25 ms from a ``SIGALRM`` handler and rescales each interval
by the speed those samples show: the interval's length times the mean of
``REFERENCE_SAMPLE_S / sample``, which is the work done at reference
speed when every sample stands for the 25 ms around it.  The time spent
sampling (~2%) is left out of every interval.

The kernel runs the code it interrupted out of the caches, so a cold
kernel runs ~7% slower after memory-heavy code than after CPU-bound
code, and the clock would hide that share of a memory-heavy slowdown.
Each sample therefore warms the kernel up before it times it; the
self-test ``test_clock_charges_memory_heavy_work_in_full`` holds the
clock to charging both kinds of code at one speed.
"""

from __future__ import annotations

import signal
import time
import typing

#: Seconds a warm ``_kernel()`` takes on the reference machine (2-vCPU
#: Xeon, Python 3.11) at its fastest: the 5th percentile of 9,600
#: samples taken over four minutes.
REFERENCE_SAMPLE_S = 0.139e-3
INTERVAL_S = 0.025
WARMUP_STEPS = 300


def _kernel(n: int = 1500) -> int:
    # Integers only: the kernel allocates nothing the garbage collector
    # tracks, so the simulator's heap size does not change its speed.
    counts: typing.Dict[int, int] = {}
    for i in range(n):
        counts[i % 100] = counts.get(i % 100, 0) + i
    return len(counts)


class CalibratedClock:
    """Wall time cut into intervals, each also measured in reference
    seconds.  ``calibrate=False`` takes no samples; reference seconds
    then equal wall seconds."""

    def __init__(self, started: float, calibrate: bool = True) -> None:
        self.calibrating = calibrate
        self._last = started
        self._speeds: typing.List[float] = []
        self._speed = 1.0
        self._spent = 0.0
        if calibrate:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _sample(self, signum: int, frame: typing.Any) -> None:
        started = time.perf_counter()
        _kernel(WARMUP_STEPS)
        timed = time.perf_counter()
        _kernel()
        ended = time.perf_counter()
        self._speeds.append(REFERENCE_SAMPLE_S / (ended - timed))
        self._spent += ended - started

    def mark(self) -> typing.Tuple[float, float]:
        """``(wall_s, reference_s)`` since the previous mark, or since
        ``started``.  An interval too short to hold a sample takes the
        speed of the last interval that held one."""
        now = time.perf_counter()
        wall = now - self._last - self._spent
        if self._speeds:
            self._speed = sum(self._speeds) / len(self._speeds)
        self._speeds, self._spent, self._last = [], 0.0, now
        return wall, wall * self._speed

    def stop(self) -> None:
        if self.calibrating:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.calibrating = False
