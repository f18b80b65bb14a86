"""Extension: the hybrid framework (paper §4.2 closing discussion).

"It is possible that in some extreme workloads, e.g., highly skewed key
distribution [or] improper operator-level partitioning, some executors
may run excessive tasks, introducing extensive remote data transfer.
To tackle this problem, we can detect and split those overloaded
executors at a coarse time granularity."

Scenario: an operator deployed with ONE executor (improper partitioning)
under a data-intensive stream.  Without the hybrid controller the single
executor's NIC caps throughput; with it, the executor is split and the
operator recovers.  This is future work in the paper — reproduced here
as a working extension.
"""

import pytest

from repro import Paradigm
from repro.analysis import ResultTable
from repro.sweep import run_trial

from _config import CURRENT, emit, micro_trial


def run_variant(enable_hybrid: bool):
    return run_trial(micro_trial(
        Paradigm.ELASTICUTOR, rate=CURRENT.saturation_rate, omega=2.0,
        duration=60.0, warmup=30.0,
        tuple_bytes=32 * 1024,  # data-intensive (scaled; see Fig 13 notes)
        executors_per_operator=1, shards_per_executor=64,
        system_args={"enable_hybrid": enable_hybrid, "hybrid_interval": 8.0},
    ))


def run_pair():
    return run_variant(False), run_variant(True)


@pytest.mark.benchmark(group="hybrid")
def test_hybrid_split_rescues_improper_partitioning(benchmark, capsys):
    (plain_res, plain_sys), (hybrid_res, hybrid_sys) = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )

    controller = hybrid_sys.hybrid_controllers["calculator"]
    table = ResultTable(
        "Hybrid framework: splitting an improperly-partitioned operator "
        "(y=1, 32KB tuples, saturation)",
        ["variant", "throughput (t/s)", "executors at end", "splits"],
    )
    table.add_row(
        "rapid elasticity only",
        plain_res.throughput_tps,
        len(plain_sys.executors_by_operator["calculator"]),
        0,
    )
    table.add_row(
        "hybrid (split/merge)",
        hybrid_res.throughput_tps,
        len(hybrid_sys.executors_by_operator["calculator"]),
        controller.splits,
    )
    emit("hybrid_split", table.render(), capsys)

    assert controller.splits >= 1, "controller never split the hot executor"
    assert len(hybrid_sys.executors_by_operator["calculator"]) >= 2
    # Splitting must actually help a NIC-bound operator.
    assert hybrid_res.throughput_tps > 1.1 * plain_res.throughput_tps
