"""Repository benchmark: simulator speed, set-up and memory on four workloads.

Every (workload, repeat) pair runs in a fresh single-threaded child
(``child.py``), one child at a time, with repeats interleaved round-robin
across the selected workloads; each repeat is followed by cheap
set-up-only children that sample ``setup_s``.  Each child is checked
against the pinned outputs in ``expected.json`` (at the default seed) and
against the other repeats of its workload (at every seed); a crash, a
timeout or a wrong output counts as a failed repeat and does not stop
the benchmark.

    python perfbench/bench.py                   # all workloads, 5 rounds
    python perfbench/bench.py --trace           # per-layer ledger
    python perfbench/bench.py --workload steady --seed 3 --seconds 30 --trace 0

Metric lines read ``workload metric value unit``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import typing

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ledger import LAYERS  # noqa: E402

try:
    from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
except ImportError as exc:  # perf/harness.py is missing: not a checkout
    raise SystemExit(f"error: {exc}; run from a checkout of the repository")

CHILD = HERE / "child.py"
EXPECTED_PATH = HERE / "expected.json"
REPRO_INIT = HERE.parent / "src" / "repro" / "__init__.py"

#: Set-up-only children after each measured repeat.
SETUP_SAMPLES = 3

#: Outputs ``expected.json`` pins per run.  Latency quantiles are left
#: out on purpose: they come from a sampled reservoir due to be replaced.
PINNED = (
    "generated_tuples",
    "processed_tuples",
    "stream_bytes",
    "migration_bytes",
    "remote_task_bytes",
    "scheduler_rounds",
    "reassignments",
    "tuples_lost",
)

END_TO_END_UNITS = {
    "tuples_per_s": "tuples/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

MB = float(1 << 20)
#: Per-layer counters: name -> (per-run output summed over runs, unit).
COUNTERS: typing.Dict[str, typing.Tuple[str, str]] = {
    "sim.events": ("events", "count"),
    "executors.batches": ("batches", "count"),
    "executors.reassignments": ("reassignments", "count"),
    "cluster.stream_mb": ("stream_bytes", "MB"),
    "cluster.migration_mb": ("migration_bytes", "MB"),
    "cluster.remote_task_mb": ("remote_task_bytes", "MB"),
    "scheduler.rounds": ("scheduler_rounds", "count"),
    "faults.recoveries": ("recoveries", "count"),
}


def _per_layer_units() -> typing.Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
        if layer != "other":
            units[f"{layer}.calls"] = "count"
    for counter, (_, unit) in COUNTERS.items():
        units[counter] = unit
    units["trace.overhead"] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()

#: Per-child values kept in the ``--out`` report.
SAMPLE_KEYS = (
    "kind", "status", "setup_s", "run_s", "wall_setup_s", "wall_run_s", "tuples_per_s",
    "peak_rss_mb",
)

Record = typing.Dict[str, typing.Any]


def child_env(flight_dir: str) -> typing.Dict[str, str]:
    """The children's environment: pinned hash seed, one thread each,
    no ``REPRO_*`` switches leaking in from the caller's shell, and
    flight-recorder dumps of a crashing run sent to ``flight_dir``.

    Children also write bytecode caches whatever the caller's shell says,
    so ``setup_s`` measures importing ``repro`` the way an installed copy
    does, not recompiling it: only the first child in a fresh checkout
    compiles.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
    }
    # String hashing is pinned because naive-EC placement still iterates
    # a set of executor names (see README.md, "Hash seed").
    env.update(
        PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        REPRO_FLIGHT_DIR=flight_dir,
    )
    return env


def run_child(name: str, seed: int, kind: str = "run") -> Record:
    """Run one child of workload ``name`` and return its record.

    ``kind`` is ``run`` (a measured repeat), ``profile`` (a cProfile'd
    repeat) or ``setup`` (set-up only).  ``status`` is ``ok``, ``crash``
    or ``timeout``; a crashed or timed-out child carries an ``error`` and
    no measurements.
    """
    command = [sys.executable, str(CHILD), name, str(seed)]
    if kind != "run":
        command.append({"profile": "--profile", "setup": "--setup-only"}[kind])
    timeout = WORKLOADS[name].timeout_s * (5.0 if kind == "profile" else 1.0)
    # The directory lives in the checkout and goes with the child.
    with tempfile.TemporaryDirectory(prefix=".flight-", dir=HERE) as flight_dir:
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, env=child_env(flight_dir),
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"kind": kind, "status": "timeout", "error": f"timed out after {timeout:g} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit status {proc.returncode}"]
        return {"kind": kind, "status": "crash", "error": tail[0]}
    record = json.loads(lines[-1])
    record.update(kind=kind, status="ok")
    if "runs" in record:
        processed = sum(run["processed_tuples"] for run in record["runs"])
        record["tuples_per_s"] = processed / record["run_s"]
        record["wall_tuples_per_s"] = processed / record["wall_run_s"]
    return record


def load_expected() -> Record:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def problems(
    runs: typing.List[Record],
    reference: typing.Optional[typing.List[Record]],
    pinned: typing.Optional[typing.List[Record]],
) -> typing.List[str]:
    """Everything wrong with one child's outputs: invariants, agreement
    with the workload's first repeat, and the pinned values."""
    found = []
    for index, run in enumerate(runs):
        label = f"run {index} ({run['paradigm']})"
        # Every generated tuple is processed once, counted lost, or still
        # in flight when the run ends.
        if not 0 < run["processed_tuples"] <= run["generated_tuples"] - run["tuples_lost"]:
            found.append(
                f"{label}: processed {run['processed_tuples']} and lost "
                f"{run['tuples_lost']} of {run['generated_tuples']} generated tuples"
            )
        if pinned is not None:
            for key in PINNED:
                want = pinned[index][key] if index < len(pinned) else None
                if run[key] != want:
                    found.append(f"{label}: {key} {run[key]} != expected {want}")
    if reference is not None and runs != reference:
        found.append("outputs differ from the workload's first repeat")
    if pinned is not None and len(runs) != len(pinned):
        found.append(f"{len(runs)} runs, expected {len(pinned)}")
    return found


def check(
    records: typing.List[Record], seed: int, expected: Record, name: str
) -> None:
    """Mark each record of workload ``name`` with outputs ``ok`` or
    ``mismatch``."""
    pinned = expected["workloads"][name] if seed == expected["seed"] else None
    reference = None
    for record in records:
        if record["status"] != "ok" or "runs" not in record:
            continue
        found = problems(record["runs"], reference, pinned)
        if reference is None:
            reference = record["runs"]
        if found:
            record["status"] = "mismatch"
            record["error"] = "; ".join(found)


def measure(
    names: typing.Sequence[str],
    seed: int,
    rounds: typing.Optional[int] = None,
    seconds: typing.Optional[float] = None,
    trace: bool = False,
    setup_samples: int = SETUP_SAMPLES,
) -> typing.Dict[str, typing.List[Record]]:
    """Run the interleaved repeats and return each workload's records.

    A round runs, for each workload in turn, one measured repeat and then
    ``setup_samples`` set-up-only children.  The loop stops after
    ``rounds`` rounds, or before the round that would end past
    ``seconds``; at least one round always runs.  With ``trace`` every
    workload first gets one profiled child.
    """
    started = time.perf_counter()
    records: typing.Dict[str, typing.List[Record]] = {name: [] for name in names}
    if trace:
        for name in names:
            records[name].append(run_child(name, seed, "profile"))
    longest = 0.0
    done = 0
    while rounds is None or done < rounds:
        elapsed = time.perf_counter() - started
        if seconds is not None and done and elapsed + longest > seconds:
            break
        round_started = time.perf_counter()
        for name in names:
            record = run_child(name, seed)
            records[name].append(record)
            print(f"# {name} repeat {done + 1}: {record['status']}"
                + (f" {record['tuples_per_s']:.0f} tuples/s" if record["status"] == "ok" else ""))
            records[name].extend(run_child(name, seed, "setup") for _ in range(setup_samples))
        longest = max(longest, time.perf_counter() - round_started)
        done += 1
    return records


def metric(samples: typing.Sequence[float], unit: str) -> Record:
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


def summarize(records: typing.List[Record], trace: bool) -> Record:
    """Metrics, failures and samples of one workload.

    Timings come from children whose status is ``ok`` only; a metric
    no such child measured is left out.  ``failed`` counts every failed
    child, ``failed_share`` the measured repeats.  With ``trace`` the per-layer
    ledger metrics are left out when the profiled child failed, and the
    counters when no measured repeat succeeded.
    """
    repeats = [r for r in records if r["kind"] == "run"]
    measured = [r for r in repeats if r["status"] == "ok"]
    setups = [r for r in records if r["kind"] == "setup" and r["status"] == "ok"]
    failed = [r for r in records if r["status"] != "ok"]
    summary: Record = {
        "attempted": len(records),
        "failed": len(failed),
        "failures": [
            f"{r['kind']} child {index}: {r['status']}: {r['error']}"
            for index, r in enumerate(records)
            if r["status"] != "ok"
        ],
    }
    metrics: Record = {}
    wall: Record = {}
    if measured:
        metrics["tuples_per_s"] = metric([r["tuples_per_s"] for r in measured], "tuples/s")
        wall["tuples_per_s"] = statistics.median(r["wall_tuples_per_s"] for r in measured)
    if setups:
        metrics["setup_s"] = metric([r["setup_s"] for r in setups], "s")
        wall["setup_s"] = statistics.median(r["wall_setup_s"] for r in setups)
    if measured:
        metrics["peak_rss_mb"] = metric([r["peak_rss_mb"] for r in measured], "MB")
    if repeats:
        metrics["failed_share"] = {
            "value": (len(repeats) - len(measured)) / len(repeats),
            "unit": "fraction",
            "n": len(repeats),
        }
    summary["end_to_end"] = metrics
    summary["wall"] = wall
    summary["samples"] = [{key: r.get(key) for key in SAMPLE_KEYS} for r in records]
    if trace:
        values: typing.Dict[str, float] = {}
        profiled = records[0]
        if profiled["status"] == "ok":
            for layer, entry in profiled["ledger"]["layers"].items():
                for field, value in entry.items():
                    values[f"{layer}.{field}"] = value
        if measured:
            for counter, (key, unit) in COUNTERS.items():
                total = sum(run[key] for run in measured[0]["runs"])
                values[counter] = total / MB if unit == "MB" else total
            if profiled["status"] == "ok":
                values["trace.overhead"] = profiled["wall_run_s"] / statistics.median(
                    r["wall_run_s"] for r in measured
                )
        summary["per_layer"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
            if name in values
        }
    return summary


def machine() -> Record:
    """What the numbers were measured on."""
    from importlib import metadata

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            model = next(
                line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def print_report(report: Record, trace: bool) -> None:
    for name, summary in report["workloads"].items():
        for failure in summary["failures"]:
            print(f"FAILED {name} {failure}")
        for key, row in summary["end_to_end"].items():
            spread = f" min={row['min']} max={row['max']}" if "min" in row else ""
            wall = f" wall={summary['wall'][key]}" if key in summary["wall"] else ""
            print(f"{name} {key} {row['value']} {row['unit']}{spread} n={row['n']}{wall}")
        if trace:
            for key, row in summary["per_layer"].items():
                print(f"{name} {key} {row['value']} {row['unit']}")


def result_line(report: Record, trace: bool) -> Record:
    """The closing JSON object: end-to-end metrics, or per-layer ones
    with ``trace``; keys gain a ``workload/`` prefix when several ran."""
    workloads = report["workloads"]
    metrics: Record = {}
    for name, summary in workloads.items():
        rows = summary["per_layer"] if trace else {
            key: row for key, row in summary["end_to_end"].items() if key in END_TO_END_UNITS
        }
        prefix = f"{name}/" if len(workloads) > 1 else ""
        for key, row in rows.items():
            metrics[prefix + key] = {"value": row["value"], "unit": row["unit"]}
    attempted = sum(s["attempted"] for s in workloads.values())
    failed = sum(s["failed"] for s in workloads.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def pin(records_by_name: typing.Dict[str, typing.List[Record]]) -> Record:
    """``expected.json`` content from one round at the default seed."""
    return {
        "seed": DEFAULT_SEED,
        "workloads": {
            name: [
                {"paradigm": run["paradigm"], **{key: run[key] for key in PINNED}}
                for run in records[0]["runs"]
            ]
            for name, records in records_by_name.items()
        },
    }


def parse_args(argv: typing.Optional[typing.Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for about this long instead of --rounds rounds")
    parser.add_argument("--rounds", type=int, default=None,
                        help="interleaved rounds (default 5 without --seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one profiled child per workload and report per-layer metrics")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the JSON report here")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from this run (default seed only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.rounds is None and args.seconds is None:
        args.rounds = 5
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error(f"--pin records outputs at the default seed {DEFAULT_SEED} only")
    return args


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not REPRO_INIT.is_file():
        print(f"error: {REPRO_INIT.parent} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    names = [name for name in WORKLOADS if name in (args.workload or WORKLOADS)]
    trace = bool(args.trace)
    if args.pin:
        records = measure(names, args.seed, rounds=1, setup_samples=0)
        if any(r["status"] != "ok" for rs in records.values() for r in rs):
            print("error: a repeat failed; expected.json left unchanged", file=sys.stderr)
            return 1
        with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
            json.dump(pin(records), handle, indent=2)
            handle.write("\n")
        print(f"wrote {EXPECTED_PATH}")
    expected = load_expected()
    records = measure(names, args.seed, rounds=args.rounds, seconds=args.seconds, trace=trace)
    report: Record = {"workloads": {}}
    for name in names:
        check(records[name], args.seed, expected, name)
        report["workloads"][name] = summarize(records[name], trace)
    print_report(report, trace)
    if args.out is not None:
        document = {
            "machine": machine(),
            "seed": args.seed,
            "rounds": args.rounds,
            "seconds": args.seconds,
            "trace": trace,
            **report,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    print(json.dumps(result_line(report, trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
