"""Figure 7: instantaneous throughput timeline at ω = 2.

Paper result: static is consistently low; RC and Elasticutor both show a
transient dip after every key shuffle, but RC's dip lasts 10-20 s while
Elasticutor's lasts 1-3 s.
"""

import pytest

from repro import Paradigm
from repro.analysis import ResultTable
from repro.sweep import run_trial

from _config import CURRENT, emit, micro_trial

PARADIGMS = (Paradigm.STATIC, Paradigm.RC, Paradigm.ELASTICUTOR)


def run_timelines():
    duration = CURRENT.duration
    series = {}
    shuffle_times = None
    for paradigm in PARADIGMS:
        result, _ = run_trial(micro_trial(
            paradigm, rate=CURRENT.saturation_rate, omega=2.0,
            duration=duration, warmup=duration * 0.2,
            system_args={"sample_interval": 1.0},
        ))
        series[paradigm] = dict(result.throughput_series.to_rows())
        shuffle_times = [t for t in range(30, int(duration) + 1, 30)]
    return series, shuffle_times


@pytest.mark.benchmark(group="fig07")
def test_fig07_instantaneous_throughput(benchmark, capsys):
    series, shuffle_times = benchmark.pedantic(run_timelines, rounds=1, iterations=1)

    table = ResultTable(
        "Figure 7: instantaneous throughput (tuples/s), 1 s sliding window, "
        "omega=2 (key shuffle every 30 s)",
        ["t (s)"] + [p.value for p in PARADIGMS],
    )
    times = sorted(series[Paradigm.STATIC])
    for t in times:
        if t < 10:
            continue
        label = f"{t:.0f}" + (" *" if t in shuffle_times else "")
        table.add_row(label, *(series[p].get(t, 0.0) for p in PARADIGMS))
    emit(
        "fig07_instantaneous_throughput",
        table.render() + "\n(* = key shuffle)",
        capsys,
    )

    # Transient analysis: within the 12 s after each shuffle, how many
    # 1-second samples sit below 80% of the paradigm's own steady
    # throughput.  (RC's disruption starts a few seconds post-shuffle,
    # when its manager reacts and closes the gate.)
    def dip_severity(paradigm):
        values = series[paradigm]
        ordered = sorted(values[t] for t in times if t > 10)
        steady = ordered[len(ordered) // 2]
        worst = 0
        for shuffle in shuffle_times:
            window = [
                values[t]
                for t in times
                if shuffle < t <= shuffle + 12 and t in values
            ]
            below = sum(1 for v in window if v < 0.8 * steady)
            worst = max(worst, below)
        return worst

    rc_dip = dip_severity(Paradigm.RC)
    ec_dip = dip_severity(Paradigm.ELASTICUTOR)
    # Elasticutor recovers from shuffles faster than RC.
    assert ec_dip <= rc_dip
    assert ec_dip <= 4, f"Elasticutor depressed for {ec_dip}s after a shuffle"
