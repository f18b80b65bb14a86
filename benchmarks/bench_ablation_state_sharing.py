"""Ablation: intra-process state sharing on vs off.

DESIGN.md calls out state sharing (paper §3.2) as the design choice that
makes same-node shard reassignment free.  This bench disables it (every
reassignment serializes and copies the shard state even within a
process) and compares reassignment cost and end-to-end throughput under
a dynamic workload.
"""

import pytest

from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem
from repro.analysis import ResultTable
from repro.executors.config import ExecutorConfig
from repro.runtime import SystemConfig

from _config import CURRENT, emit


def run_variant(disable_sharing: bool, shard_state_bytes: int):
    # The executor config disables sharing and the operator uses a bigger
    # shard state so the copy cost is visible.  (An ``ExecutorConfig``
    # object has no TrialConfig spelling, so this bench builds by hand.)
    workload = MicroBenchmarkWorkload(
        rate=CURRENT.latency_rate, num_keys=CURRENT.num_keys, skew=CURRENT.skew,
        omega=8.0, batch_size=20, seed=42,
    )
    topology = workload.build_topology(
        executors_per_operator=CURRENT.executors_per_operator,
        shards_per_executor=CURRENT.shards_per_executor,
        shard_state_bytes=shard_state_bytes,
    )
    config = SystemConfig(
        paradigm=Paradigm.ELASTICUTOR,
        num_nodes=CURRENT.num_nodes,
        cores_per_node=CURRENT.cores_per_node,
        source_instances=CURRENT.source_instances,
        executor=ExecutorConfig(disable_state_sharing=disable_sharing),
    )
    system = StreamSystem(topology, workload, config)
    result = system.run(duration=45.0, warmup=20.0)
    return result, system


def run_ablation():
    state_bytes = 4 * 1024 * 1024  # 4 MB shards: copying hurts
    with_sharing = run_variant(False, state_bytes)
    without_sharing = run_variant(True, state_bytes)
    return with_sharing, without_sharing


@pytest.mark.benchmark(group="ablation")
def test_ablation_state_sharing(benchmark, capsys):
    (with_res, with_sys), (without_res, without_sys) = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )

    def intra_total(system):
        stats = system.reassignment_stats.mean_breakdown(inter_node=False)
        return stats

    with_intra = intra_total(with_sys)
    without_intra = intra_total(without_sys)
    table = ResultTable(
        "Ablation: intra-process state sharing (4 MB shards, omega=8)",
        ["variant", "intra-node moves", "intra migration (ms)",
         "mean latency (ms)", "throughput (t/s)"],
    )
    table.add_row(
        "sharing ON (paper)",
        with_intra["count"],
        with_intra["migration"] * 1e3,
        with_res.latency["mean"] * 1e3,
        with_res.throughput_tps,
    )
    table.add_row(
        "sharing OFF",
        without_intra["count"],
        without_intra["migration"] * 1e3,
        without_res.latency["mean"] * 1e3,
        without_res.throughput_tps,
    )
    emit("ablation_state_sharing", table.render(), capsys)

    # With sharing, intra-node moves are free; without, they pay a copy.
    assert with_intra["migration"] == 0.0
    assert without_intra["migration"] > 0.0
    # The copy cost shows up in reassignment totals.
    assert (
        without_intra["migration"] + without_intra["sync"]
        > with_intra["sync"]
    )
