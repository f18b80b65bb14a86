"""Stateless-vs-stateful crossover workloads (scalehub-style suite).

The network-realism crossover study (docs/network.md) compares how each
paradigm's scaling behaves when reconfiguration must move state across a
slow or jittery fabric.  Two workloads bracket the axis:

- :class:`StatelessMapWorkload` — generator → mapper with **no per-key
  state** (``touch_state=False``, zero shard bytes): reassigning a shard
  moves routing labels only, so scaling is almost free at any latency.
- :class:`WindowedJoinWorkload` — generator → joiner holding a keyed
  **join window buffer** per shard (megabytes of retained tuples, as in
  scalehub's key-key windowed join): every shard reassignment migrates
  the window over the fabric, which is exactly where operator-level (RC)
  scaling collapses under WAN latency while executor-level reassignment
  degrades gracefully.

Both reuse the micro-benchmark's generator (zipf keys, ω shuffles/min,
deterministic numpy draws) so the only variable between them is the state
a reconfiguration has to carry.
"""

from __future__ import annotations

import typing

from repro.fields import NON_NEGATIVE, check_number
from repro.logic.base import SyntheticLogic
from repro.topology import KeySpace, Topology, TopologyBuilder
from repro.workloads.micro import MicroBenchmarkWorkload


class StatelessMapWorkload(MicroBenchmarkWorkload):
    """generator → mapper, no per-key state (scalehub's *map* operator)."""

    def build_topology(
        self,
        executors_per_operator: int = 32,
        shards_per_executor: int = 256,
        shard_state_bytes: int = 0,
        hot_state_entries: typing.Optional[int] = None,
    ) -> Topology:
        builder = TopologyBuilder()
        builder.add_source(
            "generator",
            key_space=KeySpace(self.num_keys),
            num_executors=executors_per_operator,
        )
        builder.add_operator(
            "mapper",
            SyntheticLogic(
                selectivity=0.0,
                cost_per_tuple=self.cost_per_tuple,
                touch_state=False,
            ),
            upstream=["generator"],
            key_space=KeySpace(self.num_keys),
            num_executors=executors_per_operator,
            shards_per_executor=shards_per_executor,
            shard_state_bytes=shard_state_bytes,
            hot_state_entries=hot_state_entries,
        )
        return builder.build()


class WindowedJoinWorkload(MicroBenchmarkWorkload):
    """generator → joiner with a keyed join-window buffer per shard.

    ``window_bytes_per_shard`` models the retained window: a 30 s window
    of 128-byte tuples at a few thousand tuples/s spread over the shard
    space lands in the megabyte range per shard, matching scalehub's
    stateful key-key join.  The buffer travels with the shard on every
    reassignment (state migration over the fabric), so its size — not the
    per-tuple CPU cost — is what the network profile stresses.
    """

    def __init__(
        self,
        *args: typing.Any,
        window_bytes_per_shard: int = 2 * 1024 * 1024,
        **kwargs: typing.Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.window_bytes_per_shard = check_number(
            "window_bytes_per_shard", window_bytes_per_shard, NON_NEGATIVE
        )

    def build_topology(
        self,
        executors_per_operator: int = 32,
        shards_per_executor: int = 256,
        shard_state_bytes: typing.Optional[int] = None,
        hot_state_entries: typing.Optional[int] = None,
    ) -> Topology:
        if shard_state_bytes is None:
            shard_state_bytes = self.window_bytes_per_shard
        builder = TopologyBuilder()
        builder.add_source(
            "generator",
            key_space=KeySpace(self.num_keys),
            num_executors=executors_per_operator,
        )
        builder.add_operator(
            "joiner",
            SyntheticLogic(
                selectivity=0.0,
                cost_per_tuple=self.cost_per_tuple,
                touch_state=True,
            ),
            upstream=["generator"],
            key_space=KeySpace(self.num_keys),
            num_executors=executors_per_operator,
            shards_per_executor=shards_per_executor,
            shard_state_bytes=shard_state_bytes,
            hot_state_entries=hot_state_entries,
        )
        return builder.build()
