"""Perf regression gate: compare BENCH_kernel.json to the committed baseline.

Two checks per scenario:

1. **Behaviour (hard)**: the processed event count must match the baseline
   *exactly*.  Scenarios are deterministic, so any difference means the
   kernel's behaviour changed — that is a correctness failure, not a perf
   regression, and no tolerance applies.
2. **Speed (soft)**: batches/sec must be within :data:`TOLERANCE` (30%)
   of the baseline.  Batches are the work the data path does; the
   kernel events per batch are not fixed across builds (a build that
   schedules fewer events per batch does the same work), so events/sec
   does not measure throughput.  Wall-clock numbers move with hardware,
   so the gate is deliberately loose; it exists to catch
   order-of-magnitude slips (an accidental O(n) scan in the hot path),
   not 5% wobble.

The telemetry layer may cost at most :data:`TELEMETRY_OVERHEAD` (5%) of
wall clock, measured as ``micro_telemetry`` vs ``micro`` within the
*same* report: the median over rounds of the two scenarios' wall ratio
in that round.  A same-machine ratio, so it stays meaningful where
absolute floors do not.

Usage::

    PYTHONPATH=src python perf/check.py                 # default paths
    PYTHONPATH=src python perf/check.py --report X.json --baseline Y.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perf.harness import BASELINE_PATH, RESULT_PATH  # noqa: E402

#: Allowed fractional batches/sec drop against the baseline.
TOLERANCE = 0.30
#: Telemetry-on vs telemetry-off wall-clock ratio allowed for ``micro``.
TELEMETRY_OVERHEAD = 0.05


def check_telemetry_overhead(report: dict, allowed: float = TELEMETRY_OVERHEAD) -> list:
    """``micro_telemetry`` may cost at most ``allowed`` over ``micro``.

    Both scenarios come from the same report (same machine, same run), so
    the ratio cancels hardware speed; only the instrumentation cost is
    left.  The harness interleaves the scenarios, so each round gives
    one ratio of two runs made back to back; the overhead is the median
    of those ratios, which one noisy run cannot move the way it moves a
    ratio of two best-of-N walls.  A report without matching per-round
    ``walls`` fails: it was written by an older harness.  Skipped unless
    both scenarios are present.
    """
    scenarios = report.get("scenarios", {})
    plain = scenarios.get("micro")
    instrumented = scenarios.get("micro_telemetry")
    if plain is None or instrumented is None:
        return []
    plain_walls = plain.get("walls")
    telemetry_walls = instrumented.get("walls")
    if not plain_walls or not telemetry_walls or (
        len(plain_walls) != len(telemetry_walls)
    ):
        return [
            "telemetry: micro and micro_telemetry lack matching per-round "
            "walls; regenerate the report with benchmarks/bench_kernel.py"
        ]
    ratios = [
        with_telemetry / without
        for with_telemetry, without in zip(telemetry_walls, plain_walls)
    ]
    overhead = statistics.median(ratios) - 1.0
    verdict = "ok"
    failures = []
    if overhead > allowed:
        verdict = "FAIL"
        failures.append(
            f"telemetry overhead {overhead:+.1%} exceeds the "
            f"{allowed:.0%} budget (median of {len(ratios)} per-round "
            f"ratios; best walls micro {plain['wall_seconds']:.3f}s, "
            f"micro_telemetry {instrumented['wall_seconds']:.3f}s)"
        )
    print(
        f"{'telemetry':<10} overhead={overhead:+.1%} "
        f"(median of {len(ratios)} rounds) budget={allowed:.0%} {verdict}"
    )
    return failures


def check(report: dict, baseline: dict) -> int:
    failures = []
    for name, base in baseline["scenarios"].items():
        row = report["scenarios"].get(name)
        if row is None:
            print(f"{name:<10} not in report — skipped")
            continue
        if row["events"] != base["events"]:
            failures.append(
                f"{name}: event count {row['events']:,} != baseline "
                f"{base['events']:,} — kernel behaviour changed"
            )
            continue
        floor = base["batches_per_sec"] * (1.0 - TOLERANCE)
        rate = row["batches_per_sec"]
        verdict = "ok"
        if rate < floor:
            verdict = "FAIL"
            failures.append(
                f"{name}: {rate:,.0f} batches/s is below the floor "
                f"{floor:,.0f} (baseline {base['batches_per_sec']:,.0f} "
                f"- {TOLERANCE:.0%})"
            )
        print(
            f"{name:<10} events={row['events']:,} "
            f"batches/s={rate:,.0f} floor={floor:,.0f} {verdict}"
        )
    failures.extend(check_telemetry_overhead(report))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=pathlib.Path, default=RESULT_PATH)
    parser.add_argument("--baseline", type=pathlib.Path, default=BASELINE_PATH)
    args = parser.parse_args(argv)

    with open(args.report, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    return check(report, baseline)


if __name__ == "__main__":
    raise SystemExit(main())
