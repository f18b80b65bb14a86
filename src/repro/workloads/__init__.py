"""Workload generators.

- :class:`ZipfKeyDistribution` + :class:`KeyShuffler`: the paper's
  micro-benchmark key model — zipf(0.5) frequencies over 10K keys, with a
  random permutation of key frequencies applied ω times per minute to
  emulate workload dynamics.
- :class:`BurstEvent` + :class:`HotspotBurst`: scheduled hotspot bursts
  that boost the currently hottest keys by a factor for a fixed window
  (boosts follow keys across shuffles).
- :class:`MicroBenchmarkWorkload`: the generator→calculator topology of §5.1.
- :class:`SSEWorkload`: a synthetic substitute for the proprietary
  Shanghai Stock Exchange order trace of §5.4 (see DESIGN.md).
"""

from repro.workloads.zipf import (
    BurstEvent,
    HotspotBurst,
    KeyShuffler,
    ZipfKeyDistribution,
)
from repro.workloads.join import StatelessMapWorkload, WindowedJoinWorkload
from repro.workloads.micro import MicroBenchmarkWorkload
from repro.workloads.sse import SSEWorkload

__all__ = [
    "BurstEvent",
    "HotspotBurst",
    "KeyShuffler",
    "MicroBenchmarkWorkload",
    "SSEWorkload",
    "StatelessMapWorkload",
    "WindowedJoinWorkload",
    "ZipfKeyDistribution",
]
