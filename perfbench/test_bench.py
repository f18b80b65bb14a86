"""Self-tests of the benchmark: ``python -m pytest perfbench -q``.

The profiled fixture runs one cProfile'd child per workload (about a
minute on a 2-vCPU machine), the clock tests take about a minute
together, and the other tests take seconds.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import bench
import clock
import ledger
import workloads

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
REPRO = REPO / "src" / "repro"


def test_every_repro_file_maps_to_exactly_one_layer():
    files = sorted(REPRO.rglob("*.py"))
    assert files
    for path in files:
        relpath = path.relative_to(REPRO).as_posix()
        matches = ledger.claims(relpath)
        assert matches, f"{relpath} belongs to no layer; add it to ledger.LAYER_PATHS"
        longest = max(len(prefix) for prefix, _ in matches)
        winners = {layer for prefix, layer in matches if len(prefix) == longest}
        assert len(winners) == 1, f"{relpath} is claimed by {sorted(winners)}"


@pytest.fixture(scope="module")
def profiled():
    return {
        name: bench.run_child(name, workloads.DEFAULT_SEED, "profile")
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_self_times_sum_to_the_profiled_total(profiled, name):
    record = profiled[name]
    assert record["status"] == "ok", record.get("error")
    layers = record["ledger"]["layers"]
    assert list(layers) == list(ledger.LAYERS)
    total = record["ledger"]["total_s"]
    assert sum(entry["self_s"] for entry in layers.values()) == pytest.approx(total, rel=0.01)
    assert sum(entry["share"] for entry in layers.values()) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_other_layer_stays_small(profiled, name):
    assert profiled[name]["ledger"]["layers"]["other"]["share"] <= 0.02


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_profiling_leaves_the_outputs_unchanged(profiled, name):
    pinned = bench.load_expected()["workloads"][name]
    assert bench.problems(profiled[name]["runs"], None, pinned) == []


def test_tampered_expected_value_fails_every_repeat(tmp_path, monkeypatch, capsys):
    expected = bench.load_expected()
    expected["workloads"]["churn"][0]["processed_tuples"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(bench, "EXPECTED_PATH", path)

    status = bench.main(["--workload", "churn", "--rounds", "2"])

    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert status == 0
    # Two measured repeats fail; their set-up-only children pass.
    assert result["attempted"] == 2 * (1 + bench.SETUP_SAMPLES)
    assert result["failed"] == 2
    assert result["correct"] is False
    assert set(result["metrics"]) == {"setup_s"}
    assert "churn failed_share 1.0 fraction n=2" in lines
    assert any(line.startswith("FAILED churn") and "processed_tuples" in line for line in lines)


def test_timed_out_child_counts_as_failed(monkeypatch):
    hurried = dataclasses.replace(workloads.WORKLOADS["steady"], reference_wall_s=0.01)
    monkeypatch.setitem(bench.WORKLOADS, "steady", hurried)
    timed_out = bench.run_child("steady", workloads.DEFAULT_SEED)
    assert timed_out["status"] == "timeout"

    summary = bench.summarize([FINISHED, timed_out], trace=False)
    assert summary["failed"] == 1
    assert summary["end_to_end"]["failed_share"]["value"] == 0.5
    assert summary["end_to_end"]["tuples_per_s"]["n"] == 1


FINISHED = {
    "kind": "run",
    "status": "ok",
    "runs": [{key: 1 for key in ("processed_tuples", *bench.PINNED)}],
    "setup_s": 0.3,
    "run_s": 4.0,
    "wall_setup_s": 0.4,
    "wall_run_s": 5.0,
    "tuples_per_s": 5e5,
    "wall_tuples_per_s": 4e5,
    "peak_rss_mb": 48.0,
}
FINISHED["runs"][0].update(events=9, batches=3, recoveries=0)


def test_failed_profile_keeps_the_counters_and_the_end_to_end_metrics():
    crashed = {"kind": "profile", "status": "crash", "error": "boom"}
    setup = {"kind": "setup", "status": "ok", "setup_s": 0.2, "wall_setup_s": 0.25}
    summary = bench.summarize([crashed, FINISHED, setup], trace=True)
    assert summary["failed"] == 1
    assert set(summary["end_to_end"]) == {*bench.END_TO_END_UNITS, "failed_share"}
    assert summary["end_to_end"]["setup_s"]["value"] == 0.2
    assert set(summary["per_layer"]) == set(bench.COUNTERS)


def test_mismatched_repeats_feed_no_timings():
    mismatched = dict(FINISHED, status="mismatch", error="wrong", tuples_per_s=1.0)
    summary = bench.summarize([FINISHED, mismatched], trace=False)
    assert summary["end_to_end"]["tuples_per_s"]["value"] == FINISHED["tuples_per_s"]
    assert summary["end_to_end"]["tuples_per_s"]["n"] == 1
    assert summary["failed"] == 1


def _busy_cpu(steps: int = 2_000_000) -> int:
    total = 0
    for i in range(steps):
        total += (i * 7) % 13
    return total


def test_clock_charges_memory_heavy_work_in_full():
    """Cache-thrashing code must be charged at the speed CPU-bound code
    sees, or a memory-heavy slowdown of the simulator would be partly
    hidden.  Alternating short phases puts both under one machine speed."""
    table = {key * 2654435761 % (1 << 40): key for key in range(1_500_000)}
    keys = list(table)
    random.Random(1).shuffle(keys)

    def memory_heavy(start: int, steps: int = 300_000) -> int:
        return sum(table[keys[(start + i) % len(keys)]] for i in range(steps))

    timer = clock.CalibratedClock(time.perf_counter())
    timer.mark()
    ratios = []
    try:
        for phase in range(40):
            _busy_cpu()
            cpu_wall, cpu_reference = timer.mark()
            memory_heavy(phase * 300_000)
            memory_wall, memory_reference = timer.mark()
            ratios.append((memory_reference / memory_wall) / (cpu_reference / cpu_wall))
    finally:
        timer.stop()
    assert statistics.median(ratios) == pytest.approx(1.0, abs=0.03)


DOUBLED_CHILD = """
import dataclasses, sys
sys.path.insert(0, {here!r})
import workloads
spec = workloads.WORKLOADS[{name!r}]
workloads.WORKLOADS[{name!r}] = dataclasses.replace(
    spec, duration={duration}, warmup={warmup}, paradigms=(spec.paradigm,) * {copies}
)
import child
sys.exit(child.main([{name!r}, "{seed}"]))
"""


@pytest.mark.parametrize(
    "name, duration, warmup",
    [("steady", 60.0, 5.0), ("sse-1m", 2.0, 0.5)],
    ids=["cpu-bound", "memory-heavy"],
)
def test_run_s_grows_by_the_full_injected_work(tmp_path, name, duration, warmup):
    """A child that simulates its workload twice over reports twice the
    run time, on the data path (steady) and on per-key tables (sse-1m)."""
    run_s = {1: [], 2: []}
    for _ in range(5):
        for copies in run_s:
            code = DOUBLED_CHILD.format(
                here=str(HERE), name=name, duration=duration, warmup=warmup,
                copies=copies, seed=workloads.DEFAULT_SEED,
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=bench.child_env(str(tmp_path)), timeout=120, check=True,
            )
            run_s[copies].append(json.loads(proc.stdout.splitlines()[-1])["run_s"])
    ratio = statistics.median(run_s[2]) / statistics.median(run_s[1])
    assert ratio == pytest.approx(2.0, abs=0.1)


def test_benchmark_json_describes_these_workloads_and_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.description) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/bench.py", "--workload", "steady", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
