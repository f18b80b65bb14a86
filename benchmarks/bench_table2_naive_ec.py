"""Table 2: naive-EC vs Elasticutor — state migration and remote traffic.

Paper: naive-EC's state migration rate is ~5x and its remote data
transfer rate ~10x Elasticutor's; the dynamic scheduler's migration-cost
minimization and computation-locality constraint are what close the gap.

The two trials run through the sweep subsystem (docs/sweeps.md) with
caching under ``benchmarks/results/sweeps/table2/``.
"""

import pytest

from repro import Paradigm
from repro.analysis import ResultTable
from repro.sweep import SweepSpec

from _sse import sse_trial
from _config import emit, run_bench_sweep

PARADIGMS = (Paradigm.NAIVE_EC, Paradigm.ELASTICUTOR)


def run_pair():
    trials = [sse_trial(paradigm, rate=25_000.0) for paradigm in PARADIGMS]
    records = run_bench_sweep("table2", SweepSpec("table2_naive_ec", trials))
    return {
        paradigm: records[trial.trial_id].result
        for paradigm, trial in zip(PARADIGMS, trials)
    }


@pytest.mark.benchmark(group="table2")
def test_table2_naive_ec_comparison(benchmark, capsys):
    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    table = ResultTable(
        "Table 2: naive-EC vs Elasticutor (SSE workload)",
        ["metric", "naive-EC", "Elasticutor", "ratio"],
    )
    naive = results[Paradigm.NAIVE_EC]
    elastic = results[Paradigm.ELASTICUTOR]
    migration_ratio = naive["migration_rate"] / max(elastic["migration_rate"], 1e-9)
    remote_ratio = naive["remote_transfer_rate"] / max(
        elastic["remote_transfer_rate"], 1e-9
    )
    table.add_row(
        "state migration rate (MB/s)",
        naive["migration_rate"] / 1e6,
        elastic["migration_rate"] / 1e6,
        f"{migration_ratio:.1f}x",
    )
    table.add_row(
        "remote data transfer rate (MB/s)",
        naive["remote_transfer_rate"] / 1e6,
        elastic["remote_transfer_rate"] / 1e6,
        f"{remote_ratio:.1f}x",
    )
    emit("table2_naive_ec", table.render(), capsys)

    # Paper: 5x migration, 10x remote transfer.  Shapes: clearly more of
    # both under naive-EC.
    assert migration_ratio > 2.0, f"migration ratio only {migration_ratio:.1f}x"
    assert remote_ratio > 3.0, f"remote transfer ratio only {remote_ratio:.1f}x"
