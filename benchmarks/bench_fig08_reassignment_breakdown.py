"""Figure 8: breakdown of shard reassignment time.

Paper result (per shard, 32 KB state): RC needs ~260-300 ms dominated by
synchronization; Elasticutor needs ~0.3 ms intra-node and a few ms
inter-node, with intra-node state migration free (intra-process state
sharing) and inter-node migration similar for both systems.

The breakdown is computed twice: once from the in-process
``ReassignmentStats`` and once from the exported telemetry artifact
(``events.jsonl`` round-tripped through ``repro.telemetry.report``) —
the two must agree exactly, which is what makes ``repro report`` a
faithful offline reproduction of this figure.
"""

import pytest

from repro import Paradigm
from repro.analysis import ResultTable
from repro.sweep import run_trial
from repro.telemetry.exporters import load_artifact
from repro.telemetry.report import reassignment_breakdown

from _config import CURRENT, RESULTS_DIR, emit, micro_trial


def collect():
    # ω = 8 produces plenty of reassignments in one run.
    results = {}
    for paradigm in (Paradigm.ELASTICUTOR, Paradigm.RC):
        out_dir = RESULTS_DIR / "telemetry" / f"fig08_{paradigm.value}"
        _, system = run_trial(
            micro_trial(paradigm, rate=CURRENT.latency_rate, omega=8.0),
            telemetry_out=str(out_dir),
        )
        results[paradigm] = (system.reassignment_stats, load_artifact(str(out_dir)))
    return results


@pytest.mark.benchmark(group="fig08")
def test_fig08_reassignment_breakdown(benchmark, capsys):
    collected = benchmark.pedantic(collect, rounds=1, iterations=1)

    table = ResultTable(
        "Figure 8: mean shard reassignment time breakdown (ms per shard)",
        ["system", "locality", "count", "sync", "state migration", "total"],
    )
    rows = {}
    for paradigm, label in ((Paradigm.RC, "RC"), (Paradigm.ELASTICUTOR, "Elasticutor")):
        stats, artifact = collected[paradigm]
        for inter_node, locality in ((False, "intra-node"), (True, "inter-node")):
            breakdown = reassignment_breakdown(artifact, inter_node)
            # The exported JSONL alone must reproduce the in-process
            # numbers bit-for-bit (same fields, same call sites).
            assert breakdown == stats.mean_breakdown(inter_node)
            rows[(label, locality)] = breakdown
            table.add_row(
                label,
                locality,
                breakdown["count"],
                breakdown["sync"] * 1e3,
                breakdown["migration"] * 1e3,
                breakdown["total"] * 1e3,
            )
    emit("fig08_reassignment_breakdown", table.render(), capsys)

    ec_intra = rows[("Elasticutor", "intra-node")]
    ec_inter = rows[("Elasticutor", "inter-node")]
    rc_intra = rows[("RC", "intra-node")]
    assert ec_intra["count"] > 0 and rc_intra["count"] > 0
    # Intra-process state sharing: intra-node moves migrate nothing.
    assert ec_intra["migration"] == 0.0
    assert rc_intra["migration"] == 0.0
    # RC's sync dominates and dwarfs Elasticutor's.  (The margin is ~9x
    # at the quick scale — EC's drain still pays queueing under load at
    # ω=8 — and widens at the paper scale.)
    assert rc_intra["sync"] > 5 * ec_intra["sync"]
    # Elasticutor inter-node pays real migration.
    if ec_inter["count"]:
        assert ec_inter["migration"] > 0.0
