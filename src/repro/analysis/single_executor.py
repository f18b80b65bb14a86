"""Single-executor scalability harness (paper §5.2, Figures 10-12).

"We set up only ONE elastic executor for the calculator operator, but
gradually allocate more CPU cores and measure its throughput and
processing latency."  The first ``cores_per_node`` cores are local, the
rest are remote — so data intensity (tuple size / CPU cost) and
elasticity cost (state size, ω) determine how far the executor scales.
"""

from __future__ import annotations

import math
import typing

from repro.cluster import Cluster, TransferPurpose
from repro.executors import ElasticExecutor
from repro.executors.config import ExecutorConfig
from repro.fields import COUNT, NON_NEGATIVE, POSITIVE, check_fields, check_number, check_window
from repro.logic.base import SyntheticLogic
from repro.sim import Environment
from repro.telemetry import QuantileSketch
from repro.topology import OperatorSpec, TupleBatch
from repro.workloads import KeyShuffler, ZipfKeyDistribution


class QueueLatencyRecorder:
    """Sink recorder sketching each batch's wait from admission (creation
    if never admitted) to completion; a fresh ``sketch`` restarts it."""

    __slots__ = ("sketch",)

    def __init__(self) -> None:
        self.sketch = QuantileSketch()

    def __call__(self, batch: TupleBatch, now: float) -> None:
        reference = batch.admitted_at
        if reference is None:
            reference = batch.created_at
        waited = now - reference
        self.sketch.add(waited if waited > 0.0 else 0.0)


_HARNESS_RULES = {
    "cost_per_tuple": POSITIVE, "tuple_bytes": NON_NEGATIVE,
    "shard_state_bytes": NON_NEGATIVE, "num_shards": COUNT, "omega": NON_NEGATIVE,
    "num_keys": COUNT, "skew": NON_NEGATIVE, "cores_per_node": COUNT,
}


class SingleExecutorHarness:
    """Measures one elastic executor's capacity at a given core count."""

    def __init__(
        self,
        cost_per_tuple: float = 1e-3,
        tuple_bytes: int = 128,
        shard_state_bytes: int = 32 * 1024,
        num_shards: int = 64,
        omega: float = 0.0,
        num_keys: int = 2000,
        skew: float = 0.5,
        batch_size: typing.Optional[int] = None,
        cores_per_node: int = 8,
        seed: int = 1,
        config: typing.Optional[ExecutorConfig] = None,
    ) -> None:
        self.cost_per_tuple = cost_per_tuple
        self.tuple_bytes = tuple_bytes
        self.shard_state_bytes = shard_state_bytes
        self.num_shards = num_shards
        self.omega = omega
        self.num_keys = num_keys
        self.skew = skew
        self.cores_per_node = cores_per_node
        check_fields(self, _HARNESS_RULES)
        # Keep event counts manageable for cheap tuples: larger batches.
        self.batch_size = batch_size or max(10, int(0.002 / cost_per_tuple))
        self.seed = seed
        self.config = config or ExecutorConfig(balance_interval=0.5)

    @staticmethod
    def check_measure(cores: int, duration: float, warmup: float) -> None:
        """``ValueError`` naming the argument that makes
        ``measure(cores, duration, warmup)`` describe no run."""
        check_number("cores", cores, COUNT)
        check_window(duration, warmup)

    def measure(
        self,
        cores: int,
        duration: float = 12.0,
        warmup: float = 6.0,
        offered_rate: typing.Optional[float] = None,
    ) -> typing.Dict[str, float]:
        """Throughput (tuples/s) and latency of the executor at ``cores``.

        Drives the executor above its nominal capacity (saturation) so the
        measured admission rate is its effective capacity.
        """
        self.check_measure(cores, duration, warmup)
        env = Environment()
        num_nodes = max(2, math.ceil(cores / self.cores_per_node) + 1)
        cluster = Cluster(env, num_nodes=num_nodes, cores_per_node=self.cores_per_node)
        spec = OperatorSpec(
            "calculator",
            logic=SyntheticLogic(selectivity=0.0, cost_per_tuple=self.cost_per_tuple),
            num_executors=1,
            shards_per_executor=self.num_shards,
            shard_state_bytes=self.shard_state_bytes,
        )
        executor = ElasticExecutor(
            env, cluster, spec, index=0, local_node=0, config=self.config
        )
        latency = QueueLatencyRecorder()
        executor.connect([], sink_recorder=latency)
        executor.start(initial_cores=1)

        def grow():
            # Local cores first, then remote nodes round-robin (the paper's
            # "first 8 cores allocated are local" setup).
            for i in range(1, cores):
                node = i // self.cores_per_node % num_nodes
                yield from executor.add_core(node)

        grow_proc = env.process(grow())
        # Reach the target size before offering load: the paper's Figures
        # 10-12 measure steady state at each core count, not the ramp.
        # Large shard states make the initial spread migration-bound, so
        # run in slices until growth completes.
        for _ in range(600):
            if not grow_proc.is_alive:
                break
            env.run(until=env.now + 1.0)
        if grow_proc.is_alive:
            raise RuntimeError(f"executor failed to grow to {cores} cores in time")

        nominal_capacity = cores / self.cost_per_tuple
        rate = offered_rate or nominal_capacity * 1.4
        distribution = ZipfKeyDistribution(self.num_keys, self.skew, seed=self.seed)
        KeyShuffler(env, distribution, self.omega).start()
        feed_started = env.now

        def feeder():
            tick = 0.05
            per_tick = rate * tick
            carry = 0.0
            tick_index = 0
            while True:
                tick_start = feed_started + tick_index * tick
                if tick_start > env.now:
                    yield env.timeout(tick_start - env.now)
                wanted = per_tick + carry
                num_batches = int(wanted / self.batch_size)
                carry = wanted - num_batches * self.batch_size
                if num_batches:
                    keys = distribution.sample(num_batches)
                    spacing = tick / num_batches
                    for j, key in enumerate(keys):
                        created = tick_start + j * spacing
                        batch = TupleBatch(
                            key=key,
                            count=self.batch_size,
                            cpu_cost=self.cost_per_tuple,
                            size_bytes=self.tuple_bytes,
                            created_at=created,
                        )
                        batch.admitted_at = env.now
                        yield executor.input_queue.put(batch)
                tick_index += 1

        env.process(feeder())

        marks: typing.Dict[str, float] = {}

        def marker():
            yield env.timeout(warmup)
            marks["processed_at_warmup"] = executor.metrics.processed_tuples.total
            # Fresh sketch: percentile over the measurement window only.
            latency.sketch = QuantileSketch()

        env.process(marker())
        env.run(until=feed_started + duration)

        processed = (
            executor.metrics.processed_tuples.total
            - marks.get("processed_at_warmup", 0)
        )
        window = duration - warmup
        sketch = latency.sketch
        return {
            "cores": cores,
            "throughput": processed / window,
            "nominal_capacity": nominal_capacity,
            "efficiency": (processed / window) / nominal_capacity,
            "latency_mean": sketch.mean,
            "latency_p99": sketch.quantile(0.99),
            "migrated_bytes": cluster.network.bytes_by_purpose[
                TransferPurpose.STATE_MIGRATION
            ].total,
        }
