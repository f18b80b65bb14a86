"""Ablation: intra-process state sharing vs an external KV store.

Paper §3.2 rejects the RAMCloud-style design: "accessing states in
external storage requires state serialization and network transfer,
which introduces undesirable delay."  Its upside is free reassignment
(state never moves).  This bench quantifies both sides on one elastic
executor scaling across nodes under a dynamic workload.
"""

import pytest

from repro.analysis import ResultTable
from repro.cluster import Cluster, TransferPurpose
from repro.executors import ElasticExecutor
from repro.executors.config import ExecutorConfig
from repro.logic.base import SyntheticLogic
from repro.sim import Environment
from repro.state import ExternalStateService
from repro.telemetry import QuantileSketch
from repro.topology import OperatorSpec, TupleBatch
from repro.workloads import KeyShuffler, ZipfKeyDistribution

from _config import emit

CORES = 8
COST = 0.5e-3
RATE = 10_000.0  # ~62% of nominal capacity


def run_variant(external: bool):
    env = Environment()
    cluster = Cluster(env, num_nodes=3, cores_per_node=8)
    service = (
        ExternalStateService(env, cluster.network, storage_nodes=[2])
        if external
        else None
    )
    spec = OperatorSpec(
        "calc", logic=SyntheticLogic(selectivity=0.0, cost_per_tuple=COST),
        num_executors=1, shards_per_executor=32,
    )
    executor = ElasticExecutor(
        env, cluster, spec, index=0, local_node=0,
        config=ExecutorConfig(balance_interval=0.5),
        external_state=service,
    )
    executor.connect([], sink_recorder=lambda b, n: None)
    executor.start(initial_cores=1)

    def grow():
        # Half the cores remote, so the sharing variant's rebalances
        # actually migrate state across nodes.
        for i in range(1, CORES):
            yield from executor.add_core(0 if i < CORES // 2 else 1)

    env.process(grow())
    env.run(until=1.0)

    distribution = ZipfKeyDistribution(2000, 0.5, seed=3)
    KeyShuffler(env, distribution, shuffles_per_minute=8.0).start()
    start = env.now

    def feeder():
        tick = 0.05
        per_tick = RATE * tick
        index = 0
        while True:
            tick_start = start + index * tick
            if tick_start > env.now:
                yield env.timeout(tick_start - env.now)
            keys = distribution.sample(int(per_tick / 10))
            for key in keys:
                batch = TupleBatch(key=key, count=10, cpu_cost=COST,
                                   size_bytes=128, created_at=env.now)
                batch.admitted_at = env.now
                yield executor.input_queue.put(batch)
            index += 1

    env.process(feeder())

    def reset_latency():
        yield env.timeout(8.0)
        executor.metrics.queue_latency = QuantileSketch()

    env.process(reset_latency())
    marks = {}

    def mark():
        yield env.timeout(8.0)
        marks["warm"] = executor.metrics.processed_tuples.total

    env.process(mark())
    env.run(until=start + 20.0)
    processed = executor.metrics.processed_tuples.total - marks["warm"]
    return {
        "throughput": processed / 12.0,
        "mean_latency": executor.metrics.queue_latency.mean,
        "p99_latency": executor.metrics.queue_latency.quantile(0.99),
        "migrated": cluster.network.bytes_by_purpose[
            TransferPurpose.STATE_MIGRATION
        ].total,
        "accesses": service.accesses if service else 0,
    }


def run_pair():
    return run_variant(False), run_variant(True)


@pytest.mark.benchmark(group="ablation")
def test_ablation_external_state(benchmark, capsys):
    shared, external = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    table = ResultTable(
        "Ablation: intra-process state sharing vs external KV store "
        f"(1 executor, {CORES} cores, omega=8)",
        ["variant", "throughput (t/s)", "mean latency (ms)",
         "p99 latency (ms)", "state migrated (KB)"],
    )
    table.add_row(
        "intra-process sharing (paper)",
        shared["throughput"], shared["mean_latency"] * 1e3,
        shared["p99_latency"] * 1e3, shared["migrated"] / 1024,
    )
    table.add_row(
        "external KV store",
        external["throughput"], external["mean_latency"] * 1e3,
        external["p99_latency"] * 1e3, external["migrated"] / 1024,
    )
    emit("ablation_external_state", table.render(), capsys)

    # The external store never migrates; the sharing design does.
    assert external["migrated"] == 0
    assert shared["migrated"] > 0
    # ... but the external store pays a round trip on every single batch.
    assert external["accesses"] > 0
    assert external["mean_latency"] > 1.3 * shared["mean_latency"]
    # The paper's design sustains the offered rate; verify it does here.
    assert shared["throughput"] > 0.9 * RATE
