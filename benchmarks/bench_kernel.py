"""Kernel micro-benchmark CLI: wall-clock events/sec and batches/sec.

Runs the canonical scenarios from :mod:`perf.harness` (micro,
micro_telemetry, burst, faulted), prints a comparison against the
pre-optimization reference kernel, and writes ``BENCH_kernel.json`` at
the repo root.

Unlike the figure benchmarks (which measure *virtual-time* system
behaviour), this measures the *simulator itself*: how fast the
discrete-event kernel and executor data plane chew through events.  The
per-scenario event counts are deterministic build invariants — if a run
reports a different event count than the reference, the kernel's
behaviour changed, and the speed comparison is meaningless.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # all scenarios
    PYTHONPATH=src python benchmarks/bench_kernel.py micro      # one scenario
    PYTHONPATH=src python benchmarks/bench_kernel.py --repeats 5
    PYTHONPATH=src python benchmarks/bench_kernel.py --out /tmp/report.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perf.harness import (  # noqa: E402
    RESULT_PATH,
    SCENARIOS,
    run_harness,
    write_report,
)

#: The prior kernel (generator coroutines + C-heapq event queue + scalar
#: ``random.Random`` workloads) measured with this same harness, best of
#: 5, same machine as perf/baseline.json.  Kept inline so the speedup a
#: run reports is against a fixed, committed reference.  The speedup is
#: the ratio of wall times for the same scenario: the kernel events per
#: batch are not fixed across builds, so events/sec would not compare
#: like with like.
#:
#: The ``events`` counts are the *current* build invariants and equal
#: perf/baseline.json's (``tests/test_perf_pins.py``): re-pin both
#: together.  A DRIFT flag means *this* build changed behaviour.
PRE_OPTIMIZATION_REFERENCE = {
    "micro": {"events": 155687, "wall_seconds": 0.4128},
    "burst": {"events": 64197, "wall_seconds": 0.1475},
    "faulted": {"events": 51330, "wall_seconds": 0.1278},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenarios",
        nargs="*",
        choices=[[], *SCENARIOS],
        help=f"scenarios to run (default: all of {', '.join(SCENARIOS)})",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="repeats per scenario; the fastest run is reported (default 3)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=RESULT_PATH,
        help=f"report path (default {RESULT_PATH})",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="add one cProfile'd run per scenario (top-25 cumulative "
        "entries, stored under 'profiles' in the report)",
    )
    args = parser.parse_args(argv)

    report = run_harness(
        args.scenarios or None, repeats=args.repeats, profile=args.profile
    )
    report["reference"] = {
        "description": (
            "pre-optimization kernel, same harness/scenarios (best of 3)"
        ),
        "scenarios": PRE_OPTIMIZATION_REFERENCE,
    }

    drift = False
    header = (
        f"{'scenario':<10} {'events':>9} {'wall (s)':>9} {'events/s':>10} "
        f"{'ref wall':>10} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    for name, row in report["scenarios"].items():
        reference = PRE_OPTIMIZATION_REFERENCE.get(name)
        speedup = ""
        ref_wall = ""
        if reference is not None:
            ref_wall = f"{reference['wall_seconds']:.4f}"
            ratio = reference["wall_seconds"] / row["wall_seconds"]
            speedup = f"{ratio:.2f}x"
            row["speedup_vs_reference"] = round(ratio, 3)
            if row["events"] != reference["events"]:
                drift = True
                speedup += " DRIFT"
        print(
            f"{name:<10} {row['events']:>9,} {row['wall_seconds']:>9.4f} "
            f"{row['events_per_sec']:>10,.0f} {ref_wall:>10} {speedup:>8}"
        )

    if args.profile:
        for name, text in report["profiles"].items():
            print(f"\n=== cProfile: {name} ===\n{text}")

    write_report(report, args.out)
    print(f"\nwrote {args.out}")
    if drift:
        print(
            "ERROR: event count differs from the reference — kernel "
            "behaviour changed, speed numbers are not comparable",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
