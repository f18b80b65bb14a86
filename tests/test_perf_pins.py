"""The kernel benchmark's reference event counts track perf/baseline.json.

``benchmarks/bench_kernel.py`` exits 1 when a run's event count differs
from its inline reference, and ``perf/check.py`` fails when it differs
from the committed baseline.  CI runs both, so a re-pin that updates one
and not the other fails every perf run.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _bench_kernel():
    spec = importlib.util.spec_from_file_location(
        "bench_kernel", ROOT / "benchmarks" / "bench_kernel.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_events_match_the_baseline():
    reference = _bench_kernel().PRE_OPTIMIZATION_REFERENCE
    baseline = json.loads((ROOT / "perf" / "baseline.json").read_text())
    assert reference
    for name, row in reference.items():
        assert row["events"] == baseline["scenarios"][name]["events"], name


def _telemetry_report(plain_walls, telemetry_walls):
    def row(walls):
        return {"wall_seconds": min(walls), "walls": walls}

    return {"scenarios": {
        "micro": row(plain_walls), "micro_telemetry": row(telemetry_walls),
    }}


def test_telemetry_gate_reads_the_median_per_round_ratio():
    import sys

    sys.path.insert(0, str(ROOT))
    from perf.check import check_telemetry_overhead

    # Round 2's plain run was quick, so the best walls differ by 20%;
    # the per-round ratios are 1.02, 1.25 and 1.03, median 1.03.
    report = _telemetry_report([1.0, 0.85, 1.0], [1.02, 1.0625, 1.03])
    assert check_telemetry_overhead(report) == []
    failures = check_telemetry_overhead(report, 0.02)
    assert len(failures) == 1 and "median of 3 per-round ratios" in failures[0]
    # A report without per-round walls on both sides fails clearly.
    del report["scenarios"]["micro"]["walls"]
    failures = check_telemetry_overhead(report)
    assert len(failures) == 1 and "per-round walls" in failures[0]
