"""Scale ceiling: events/sec and peak RSS vs cluster size and key count.

Not a paper figure — the paper's testbed tops out at 32 nodes and 10K
keys; this benchmark charts how far the simulator itself scales: SSE
runs at up to a million stocks on 100+ nodes, plus a million-key micro
cell, each measured for kernel events/sec, wall time, and **peak RSS**.

Memory is the honest axis here.  A million-key run leans on every
bounded structure this kernel grew: shared dense routing tables instead
of per-executor memo dicts, flat numpy workload state instead of
per-stock python objects, a bounded tick-weights window, and spillable
per-key shard state.  Each cell therefore carries an explicit RSS
ceiling; a regression that quietly reintroduces an O(keys) per-executor
structure fails the cell, not just slows it.

Cells run in subprocesses so ``ru_maxrss`` is a true per-cell peak (the
counter is process-wide and monotonic).  Usage:

    python benchmarks/bench_scale_ceiling.py                 # full grid
    python benchmarks/bench_scale_ceiling.py --smoke         # CI grid
    python benchmarks/bench_scale_ceiling.py --cell NAME     # one cell,
        in-process (the subprocess entry point; prints one JSON object)

Writes ``BENCH_scale.json`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import resource
import subprocess
import sys
import time
import typing

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:  # direct script invocation
    sys.path.insert(0, str(SRC))


@dataclasses.dataclass(frozen=True)
class Cell:
    """One point on the (workload, key count, cluster size) grid.

    An SSE cell's peak is mostly per-stock workload state, 8 bytes a
    stock per array: the retained tick tables (``weights_window``), the
    popularity and drift arrays, and the initial reference prices that
    the three alarm operators share.  Burst state is held only for the
    bursting stocks and a pause buffer only for a shard that has paused,
    so neither grows with the key or shard count.
    """

    name: str
    workload: str          # "sse" | "micro"
    num_keys: int
    num_nodes: int
    cores_per_node: int
    source_instances: int
    executors_per_operator: int
    shards_per_executor: int
    rate: float
    duration: float
    warmup: float
    #: Peak-RSS ceiling for this cell, in MB.  Documented headroom over
    #: measured peaks (see docs/performance.md); a breach means an
    #: O(keys) or O(nodes) structure regressed.  The million-key SSE
    #: ceilings sit below the peak that per-replica copies of the alarm
    #: operators' per-stock threshold arrays would cost.
    rss_ceiling_mb: int


def _micro_cell(name: str, num_keys: int, num_nodes: int, rate: float,
                duration: float, rss_ceiling_mb: int) -> Cell:
    return Cell(
        name=name, workload="micro", num_keys=num_keys, num_nodes=num_nodes,
        cores_per_node=4, source_instances=4,
        executors_per_operator=min(32, num_nodes * 2),
        shards_per_executor=32, rate=rate,
        duration=duration, warmup=duration / 4, rss_ceiling_mb=rss_ceiling_mb,
    )


def _sse_cell(name: str, num_keys: int, num_nodes: int, rate: float,
              duration: float, rss_ceiling_mb: int) -> Cell:
    return Cell(
        name=name, workload="sse", num_keys=num_keys, num_nodes=num_nodes,
        cores_per_node=4, source_instances=4,
        executors_per_operator=min(32, num_nodes),
        shards_per_executor=32, rate=rate,
        duration=duration, warmup=duration / 4, rss_ceiling_mb=rss_ceiling_mb,
    )


#: The full grid: key count sweep at fixed cluster, cluster sweep at
#: fixed keys, and the headline 1M-key/128-node cells.
FULL_GRID: typing.Tuple[Cell, ...] = (
    _sse_cell("sse-10k-16n", 10_000, 16, 20_000.0, 30.0, 200),
    _sse_cell("sse-100k-64n", 100_000, 64, 20_000.0, 30.0, 400),
    _sse_cell("sse-1m-128n", 1_000_000, 128, 20_000.0, 30.0, 420),
    _micro_cell("micro-10k-16n", 10_000, 16, 30_000.0, 30.0, 200),
    _micro_cell("micro-1m-128n", 1_000_000, 128, 30_000.0, 30.0, 400),
)

#: Reduced CI grid: one small sanity cell plus the million-key/100+-node
#: cells at shorter duration — the RSS ceiling is the point, and peak
#: RSS saturates within a few simulated seconds.
SMOKE_GRID: typing.Tuple[Cell, ...] = (
    _sse_cell("sse-10k-16n", 10_000, 16, 12_000.0, 10.0, 200),
    _sse_cell("sse-1m-128n", 1_000_000, 128, 12_000.0, 10.0, 400),
    _micro_cell("micro-1m-128n", 1_000_000, 128, 15_000.0, 10.0, 400),
)


def run_cell(cell: Cell) -> typing.Dict[str, typing.Any]:
    """Run one grid cell in-process and return its measurements."""
    from repro.sweep import TrialConfig, build_system

    sse = cell.workload == "sse"
    system = build_system(TrialConfig(
        workload=cell.workload,
        paradigm="elasticutor",
        rate=cell.rate,
        seed=11,
        duration=cell.duration,
        warmup=cell.warmup,
        num_nodes=cell.num_nodes,
        cores_per_node=cell.cores_per_node,
        source_instances=cell.source_instances,
        executors_per_operator=cell.executors_per_operator,
        shards_per_executor=cell.shards_per_executor,
        num_keys=cell.num_keys,
        skew=0.7 if sse else 0.8,  # SSE keeps its default popularity skew
        # Bounded structures make the million-stock cells feasible:
        # arrival tracking off (O(keys * ticks)), small weights
        # window (O(keys) per retained tick).
        workload_args=(
            {"track_arrivals": False, "weights_window": 16} if sse else {}
        ),
        topology_args={"hot_state_entries": 1024},
    ))
    started = time.perf_counter()
    result = system.run(duration=cell.duration, warmup=cell.warmup)
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    events = system.env.events_processed
    return {
        "name": cell.name,
        "workload": cell.workload,
        "num_keys": cell.num_keys,
        "num_nodes": cell.num_nodes,
        "worker_cores": cell.num_nodes * cell.cores_per_node,
        "rate": cell.rate,
        "duration": cell.duration,
        "wall_seconds": round(wall, 3),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "processed_tuples": result.processed_tuples,
        "throughput_tps": result.throughput_tps,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "rss_ceiling_mb": cell.rss_ceiling_mb,
        "rss_ok": peak_rss_mb <= cell.rss_ceiling_mb,
    }


def run_grid(grid: typing.Sequence[Cell]) -> typing.List[typing.Dict[str, typing.Any]]:
    """Run every cell in its own subprocess for honest per-cell RSS."""
    rows = []
    for cell in grid:
        print(f"[scale] {cell.name}: keys={cell.num_keys} "
              f"nodes={cell.num_nodes} rate={cell.rate:.0f}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--cell", cell.name,
             "--grid", "smoke" if grid is SMOKE_GRID else "full"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"cell {cell.name} failed:\n{proc.stdout}\n{proc.stderr}"
            )
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"[scale]   {row['events_per_sec']:.0f} events/s, "
              f"peak RSS {row['peak_rss_mb']:.0f} MB "
              f"(ceiling {row['rss_ceiling_mb']} MB)", flush=True)
        rows.append(row)
    return rows


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced CI grid")
    parser.add_argument("--cell", help="run one named cell in-process")
    parser.add_argument("--grid", choices=("full", "smoke"), default=None,
                        help="grid the --cell name resolves against")
    parser.add_argument("--out", default="BENCH_scale.json")
    args = parser.parse_args(argv)

    if args.cell:
        grid = SMOKE_GRID if args.grid == "smoke" else FULL_GRID
        by_name = {cell.name: cell for cell in grid}
        print(json.dumps(run_cell(by_name[args.cell])))
        return 0

    grid = SMOKE_GRID if args.smoke else FULL_GRID
    rows = run_grid(grid)
    report = {
        "grid": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "cells": rows,
        "rss_ok": all(row["rss_ok"] for row in rows),
    }
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"[scale] wrote {args.out}")
    breaches = [row["name"] for row in rows if not row["rss_ok"]]
    if breaches:
        print(f"[scale] RSS ceiling breached: {', '.join(breaches)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
