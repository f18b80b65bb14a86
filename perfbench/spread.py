"""Seed-to-seed spread of the end-to-end metrics: the benchmark's noise band.

Runs ``bench.py`` once per (workload, seed), the way a regression gate
runs it, and writes each run's medians -- in reference seconds and in raw
wall seconds -- plus, per metric, the median over seeds and the
interquartile range as a share of that median::

    python perfbench/spread.py --seeds 1-10 --out perfbench/results/spread-1.json
    python perfbench/spread.py --seeds 11-20 --out perfbench/results/spread-2.json

Ten 30 s runs per workload take about 20 minutes for all four.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import typing

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench import END_TO_END_UNITS, machine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seeds(text: str) -> typing.List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: typing.Sequence[float]) -> typing.Dict[str, float]:
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "iqr_share": (quartiles[2] - quartiles[0]) / median}


def run(name: str, seed: int, seconds: float) -> typing.Dict[str, typing.Any]:
    with tempfile.TemporaryDirectory(prefix=".spread-", dir=HERE) as scratch:
        out = pathlib.Path(scratch) / "report.json"
        command = [sys.executable, str(HERE / "bench.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        summary = json.loads(out.read_text())["workloads"][name]
    return {
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: row["value"] for key, row in result["metrics"].items()},
        "wall": summary["wall"],
    }


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    names = [name for name in WORKLOADS if name in (args.workload or WORKLOADS)]
    document: typing.Dict[str, typing.Any] = {
        "machine": machine(), "seconds": args.seconds, "seeds": args.seeds, "workloads": {},
    }
    for name in names:
        runs = []
        for seed in args.seeds:
            runs.append(run(name, seed, args.seconds))
            print(f"# {name} seed {seed}: {runs[-1]['metrics']}", flush=True)
        spreads = {key: spread([r["metrics"][key] for r in runs]) for key in END_TO_END_UNITS}
        for key in runs[0]["wall"]:
            spreads[f"wall.{key}"] = spread([r["wall"][key] for r in runs])
        for key, row in spreads.items():
            print(f"{name} {key} median={row['median']:.6g} iqr/median={row['iqr_share']:.4f}")
        document["workloads"][name] = {"runs": runs, "spread": spreads}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
