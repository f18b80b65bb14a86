"""The micro-benchmark workload (paper §5.1, Figure 5).

Topology: generator -> calculator.  Tuples carry an integer key and a
payload; the calculator charges a fixed CPU cost per tuple.  Defaults
match the paper: 128-byte tuples, 1 ms/tuple, 10K keys, zipf(0.5),
32 KB shard state.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.fields import COUNT, NON_NEGATIVE, POSITIVE, check_fields
from repro.logic.base import SyntheticLogic
from repro.sim import Environment
from repro.topology import KeySpace, Topology, TopologyBuilder, TupleBatch
from repro.workloads.zipf import (
    BurstEvent,
    HotspotBurst,
    KeyShuffler,
    ZipfKeyDistribution,
)


#: Load rules of the generator's own numbers (the key distribution checks
#: ``num_keys`` and ``skew``).
_MICRO_RULES = {
    "rate": POSITIVE, "cost_per_tuple": NON_NEGATIVE, "tuple_bytes": NON_NEGATIVE,
    "omega": NON_NEGATIVE, "batch_size": COUNT, "tick": POSITIVE,
}


class MicroBenchmarkWorkload:
    """Parameterizable generator→calculator workload."""

    def __init__(
        self,
        rate: float = 20_000.0,
        num_keys: int = 10_000,
        skew: float = 0.5,
        cost_per_tuple: float = 1e-3,
        tuple_bytes: int = 128,
        omega: float = 2.0,
        batch_size: int = 20,
        tick: float = 0.1,
        bursts: typing.Optional[typing.Sequence[BurstEvent]] = None,
        seed: int = 42,
    ) -> None:
        self.rate = rate
        self.num_keys = num_keys
        self.skew = skew
        self.cost_per_tuple = cost_per_tuple
        self.tuple_bytes = tuple_bytes
        self.omega = omega
        self.batch_size = batch_size
        self.tick = tick
        self.seed = seed
        self.bursts = list(bursts) if bursts else []
        check_fields(self, _MICRO_RULES)
        self.distribution = ZipfKeyDistribution(num_keys, skew, seed=seed)
        self.burst_generator: typing.Optional[HotspotBurst] = None
        self.generated_tuples = 0

    def build_topology(
        self,
        executors_per_operator: int = 32,
        shards_per_executor: int = 256,
        shard_state_bytes: int = 32 * 1024,
        hot_state_entries: typing.Optional[int] = None,
    ) -> Topology:
        """The generator→calculator topology with the paper's defaults."""
        builder = TopologyBuilder()
        builder.add_source(
            "generator",
            key_space=KeySpace(self.num_keys),
            num_executors=executors_per_operator,
        )
        builder.add_operator(
            "calculator",
            SyntheticLogic(selectivity=0.0, cost_per_tuple=self.cost_per_tuple),
            upstream=["generator"],
            key_space=KeySpace(self.num_keys),
            num_executors=executors_per_operator,
            shards_per_executor=shards_per_executor,
            shard_state_bytes=shard_state_bytes,
            hot_state_entries=hot_state_entries,
        )
        return builder.build()

    def start_dynamics(self, env: Environment) -> KeyShuffler:
        """Begin the ω shuffles/minute process and scheduled bursts."""
        shuffler = KeyShuffler(env, self.distribution, self.omega)
        shuffler.start()
        if self.bursts:
            self.burst_generator = HotspotBurst(env, self.distribution, self.bursts)
            self.burst_generator.start()
        return shuffler

    def schedule(
        self, env: Environment, instance_index: int, num_instances: int,
        duration: typing.Optional[float] = None,
    ) -> typing.Iterator[typing.Tuple[float, TupleBatch]]:
        """(emit_time, batch) stream for one source instance.

        Lazy at *tick* granularity: each tick's keys and creation times
        are drawn as whole numpy arrays when the instance reaches that
        tick, so key shuffles apply to everything generated after them
        while the per-batch python work shrinks to object construction.
        Batches carry their *nominal* creation time — under backpressure
        the instance falls behind and the waiting inflates latency, like
        an external arrival process.
        """
        if not 0 <= instance_index < num_instances:
            raise ValueError("instance_index out of range")
        per_instance_rate = self.rate / num_instances
        tuples_per_tick = per_instance_rate * self.tick
        tick = self.tick
        batch_size = self.batch_size
        cost_per_tuple = self.cost_per_tuple
        tuple_bytes = self.tuple_bytes
        sample = self.distribution.sample
        carry = 0.0
        tick_index = 0
        while duration is None or tick_index * tick < duration:
            tick_start = tick_index * tick
            wanted = tuples_per_tick + carry
            num_batches = int(wanted / batch_size)
            carry = wanted - num_batches * batch_size
            if num_batches > 0:
                keys = sample(num_batches)
                spacing = tick / num_batches
                created_times = (
                    tick_start + spacing * np.arange(num_batches)
                ).tolist()
                self.generated_tuples += num_batches * batch_size
                for created, key in zip(created_times, keys):
                    yield created, TupleBatch(
                        key, batch_size, cost_per_tuple, tuple_bytes, created
                    )
            tick_index += 1
