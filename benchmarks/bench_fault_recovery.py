"""Fault recovery: node crash at t=30s under the micro workload.

Not a paper figure — the paper's §2.1 argues that operator-level
elasticity (RC) couples every reconfiguration, including failure
recovery, to a global synchronization, while executor-level elasticity
confines it to the affected executor.  This benchmark injects the same
deterministic fault schedule (one node crash mid-run) under each
paradigm and compares the §6.6-style recovery metrics:

- Elasticutor: losses are confined to the crashed node's detection
  window, a replacement executor seizes cores and restarts in
  milliseconds, and steady-state throughput returns within ~1 sample.
- RC: even though only the crashed executors' shards need re-homing,
  the recovery pays the operator-wide gate -> drain -> migrate -> reopen
  protocol, freezing admission cluster-wide for an order of magnitude
  longer.
- Static: no elasticity machinery at all — the dead executors' key
  range dead-letters for the rest of the run (tuple loss grows without
  bound) because no spare core exists to restart into.
"""

import pytest

from repro import Paradigm
from repro.analysis import ResultTable
from repro.sweep import run_trial

from _config import CURRENT, SCALE, emit, micro_trial

CRASH_TIME = 30.0
#: ~50% utilization: recovery speed is measured with normal headroom, not
#: at the saturation point where every paradigm is queue-bound anyway.
FAULT_RATE = {"quick": 12_000.0, "paper": 110_000.0}[SCALE]


def run_with_crash(paradigm: Paradigm):
    return run_trial(micro_trial(
        paradigm, rate=FAULT_RATE, omega=2.0,
        system_args={
            "fault_spec": f"node_crash@{CRASH_TIME}:node={CURRENT.num_nodes - 1}",
            "sample_interval": 0.25,
        },
    ))[0]


@pytest.mark.benchmark
def test_fault_recovery(capsys):
    results = {}
    for paradigm in (Paradigm.ELASTICUTOR, Paradigm.RC, Paradigm.STATIC):
        results[paradigm] = run_with_crash(paradigm)

    table = ResultTable(
        f"fault recovery — node crash at t={CRASH_TIME:.0f}s, "
        f"{FAULT_RATE:,.0f} tuples/s offered",
        ["paradigm", "tuples lost", "rerouted", "state rebuilt (MB)",
         "downtime (s)", "steady state (s)", "p99 (ms)"],
    )
    for paradigm, result in results.items():
        recovery = result.recovery
        table.add_row(
            paradigm.value,
            recovery["tuples_lost"],
            recovery["tuples_rerouted"],
            recovery["state_bytes_rebuilt"] / 1e6,
            recovery["downtime_seconds"],
            result.time_to_steady_state,
            result.latency["p99"] * 1e3,
        )
    emit("fault_recovery", table.render(), capsys)

    elastic = results[Paradigm.ELASTICUTOR]
    rc = results[Paradigm.RC]
    static = results[Paradigm.STATIC]

    for result in results.values():
        assert result.recovery["faults_injected"] == 1

    # The headline claim: executor-level recovery restores steady-state
    # throughput faster than the RC baseline's global synchronization.
    assert elastic.time_to_steady_state < rc.time_to_steady_state
    # ... and with less downtime and fewer destroyed tuples.
    assert (
        elastic.recovery["downtime_seconds"] < rc.recovery["downtime_seconds"]
    )
    assert elastic.recovery["tuples_lost"] < rc.recovery["tuples_lost"]
    # The static paradigm cannot restart (no spare cores): its dead key
    # range keeps dead-lettering, dwarfing both elastic paradigms' losses.
    assert (
        static.recovery["tuples_lost"]
        > 10 * max(elastic.recovery["tuples_lost"], rc.recovery["tuples_lost"])
    )
    # Both elastic paradigms actually recovered (downtime was measured).
    assert elastic.recovery["recoveries"] >= 1
    assert rc.recovery["recoveries"] >= 1
