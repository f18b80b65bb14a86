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
