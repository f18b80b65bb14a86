"""Table 3: Elasticutor throughput and scheduling time vs cluster size.

Paper: throughput grows nearly linearly with the number of nodes
(8 -> 16 -> 32 nodes: 66.6k -> 121.3k -> 218.6k tuples/s) while the
dynamic scheduler's decision time stays at a few milliseconds, growing
only slightly with scale.  Scheduling time here is the real wall-clock
cost of our model + Algorithm 1 implementation per round — it travels
through the sweep's ``timing`` side channel (it is machine-dependent,
so it is kept out of the deterministic per-trial results).

The three cluster sizes run through the sweep subsystem (docs/sweeps.md)
with caching under ``benchmarks/results/sweeps/table3/``.
"""

import pytest

from repro import Paradigm
from repro.analysis import ResultTable
from repro.sweep import SweepSpec

from _config import emit, run_bench_sweep
from _sse import sse_trial

# (nodes, offered rate): offered scales with the cluster so each size is
# driven to saturation.
SIZES = ((4, 25_000.0), (8, 50_000.0), (16, 100_000.0))


def run_sizes():
    trials, index = [], {}
    for nodes, rate in SIZES:
        trial = sse_trial(
            Paradigm.ELASTICUTOR, rate, num_nodes=nodes,
            source_instances=max(2, nodes // 2), duration=45.0, warmup=20.0,
        )
        trials.append(trial)
        index[nodes] = trial.trial_id
    records = run_bench_sweep(
        "table3", SweepSpec("table3_scalability", trials)
    )
    return {nodes: records[trial_id] for nodes, trial_id in index.items()}


@pytest.mark.benchmark(group="table3")
def test_table3_cluster_scalability(benchmark, capsys):
    results = benchmark.pedantic(run_sizes, rounds=1, iterations=1)

    table = ResultTable(
        "Table 3: Elasticutor scalability (SSE workload)",
        ["nodes", "throughput (tuples/s)", "scheduling time (ms/round)"],
    )
    for nodes, _ in SIZES:
        record = results[nodes]
        table.add_row(
            nodes,
            record.result["throughput_tps"],
            record.timing["scheduler_mean_wall_seconds"] * 1e3,
        )
    emit("table3_scalability", table.render(), capsys)

    # Near-linear throughput growth with cluster size.
    t4 = results[4].result["throughput_tps"]
    t8 = results[8].result["throughput_tps"]
    t16 = results[16].result["throughput_tps"]
    assert t8 > 1.6 * t4
    assert t16 > 1.6 * t8
    # Scheduling cost stays in the milliseconds and grows only mildly.
    for nodes, _ in SIZES:
        assert results[nodes].timing["scheduler_mean_wall_seconds"] < 0.05
