"""Predictive-scheduler benchmark: time to steady state after a burst.

Three scheduling strategies (docs/scheduling.md) run the *identical*
recorded bursty SSE stream — a deterministic scheduled hotspot ramp
concentrates a large fraction of the order rate onto the stocks owned
by one transactor executor — and each is scored by how quickly
throughput returns to the pre-burst baseline
(:meth:`StreamSystem.steady_state_after` in stable mode):

- ``reactive``   — the paper's measure→model→assign loop (baseline);
- ``predictive`` — Holt forecast demand + DRR placement;
- ``naive-ec``   — the paper's naive-EC ablation.

The cluster is sized tight (no standing free cores) and transactor
shards carry real state, so absorbing the burst requires taking cores
from other executors and migrating state — the reorganization a
forecaster can start during the ramp and a reactive scheduler starts
only once the measured rate has already climbed.

Writes ``BENCH_predictive.json`` at the repo root and prints a table.

Usage::

    PYTHONPATH=src python benchmarks/bench_predictive.py            # full grid
    PYTHONPATH=src python benchmarks/bench_predictive.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_predictive.py --out /tmp/report.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import typing

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import (  # noqa: E402
    Paradigm,
    RecordedWorkload,
    SSEWorkload,
    ScheduledBurst,
    StreamSystem,
    SystemConfig,
)

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_predictive.json"

STRATEGIES = ("reactive", "predictive", "naive-ec")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One bursty SSE configuration shared by every strategy."""

    name: str
    rate: float
    num_stocks: int
    num_nodes: int
    cores_per_node: int
    source_instances: int
    executors_per_operator: int
    analytics_executors: int
    shards_per_executor: int
    shard_state_mb: float
    duration: float
    warmup: float
    burst_start: float
    burst_ramp: float
    burst_hold: float
    burst_magnitude: float
    burst_stocks: typing.Tuple[int, ...]
    sample_interval: float = 1.0
    recovery_threshold: float = 0.9
    recovery_window: int = 4
    seed: int = 7


#: The ramp is several scheduler rounds long, so a trend forecaster has
#: lead time a last-interval measurement cannot have — that gap is the
#: experiment.  The burst stocks are the lowest ids: they hash to the
#: leading shards, which the round-robin seed placement puts on the
#: same transactor executor, concentrating the surge.
SCENARIOS = {
    "quick": Scenario(
        name="quick",
        rate=7_000.0,
        num_stocks=80,
        num_nodes=6,
        cores_per_node=3,
        source_instances=2,
        executors_per_operator=4,
        analytics_executors=1,
        shards_per_executor=8,
        shard_state_mb=16.0,
        duration=60.0,
        warmup=10.0,
        burst_start=22.0,
        burst_ramp=6.0,
        burst_hold=14.0,
        burst_magnitude=10.0,
        burst_stocks=(0, 1, 2, 3, 4, 5),
    ),
    "smoke": Scenario(
        name="smoke",
        rate=7_000.0,
        num_stocks=80,
        num_nodes=6,
        cores_per_node=3,
        source_instances=2,
        executors_per_operator=4,
        analytics_executors=1,
        shards_per_executor=8,
        shard_state_mb=16.0,
        duration=52.0,
        warmup=10.0,
        burst_start=22.0,
        burst_ramp=6.0,
        burst_hold=10.0,
        burst_magnitude=10.0,
        burst_stocks=(0, 1, 2, 3, 4, 5),
    ),
}


def build_recording(scenario: Scenario) -> RecordedWorkload:
    """Record the bursty stream once; every strategy replays it."""
    workload = SSEWorkload(
        rate=scenario.rate,
        num_stocks=scenario.num_stocks,
        popularity_skew=0.5,
        order_cost=0.5e-3,
        batch_size=10,
        # Stochastic bursts off and drift small: the scheduled ramp is
        # the only disruption, so recovery time attributes to it alone.
        burst_probability=0.0,
        drift_sigma=0.02,
        scheduled_bursts=[
            ScheduledBurst(
                start=scenario.burst_start,
                stock=stock,
                magnitude=scenario.burst_magnitude,
                ramp=scenario.burst_ramp,
                hold=scenario.burst_hold,
            )
            for stock in scenario.burst_stocks
        ],
        seed=scenario.seed,
    )
    return RecordedWorkload.record(
        workload,
        num_instances=scenario.source_instances,
        duration=scenario.duration,
    )


def run_strategy(
    scenario: Scenario, recording: RecordedWorkload, strategy: str
) -> typing.Dict[str, typing.Any]:
    topology = recording.source.build_topology(
        executors_per_operator=scenario.executors_per_operator,
        shards_per_executor=scenario.shards_per_executor,
        analytics_executors=scenario.analytics_executors,
        shard_state_bytes=int(scenario.shard_state_mb * 1024 * 1024),
    )
    config = SystemConfig(
        paradigm=Paradigm.NAIVE_EC if strategy == "naive-ec" else Paradigm.ELASTICUTOR,
        num_nodes=scenario.num_nodes,
        cores_per_node=scenario.cores_per_node,
        source_instances=scenario.source_instances,
        scheduler_strategy=strategy,
        sample_interval=scenario.sample_interval,
    )
    system = StreamSystem(topology, recording.fresh_copy(), config)
    result = system.run(duration=scenario.duration, warmup=scenario.warmup)
    recovery = system.steady_state_after(
        scenario.burst_start,
        scenario.duration,
        stable=True,
        threshold=scenario.recovery_threshold,
        window=scenario.recovery_window,
    )
    never = scenario.duration - scenario.burst_start
    report = system.scheduler.report
    return {
        "strategy": strategy,
        "time_to_steady_state": recovery,
        "recovered": recovery < never,
        "throughput_tps": result.throughput_tps,
        "p99_latency_ms": result.latency["p99"] * 1e3,
        "mean_latency_ms": result.latency["mean"] * 1e3,
        "scheduler_rounds": result.scheduler_rounds,
        "forecast_mean_abs_error": report.rounds[-1].forecast_error
        if report.rounds
        else 0.0,
        "migration_bytes": result.migration_bytes,
    }


def run_scenario(scenario: Scenario) -> typing.Dict[str, typing.Any]:
    recording = build_recording(scenario)
    rows = [run_strategy(scenario, recording, strategy) for strategy in STRATEGIES]
    by_name = {row["strategy"]: row for row in rows}
    reactive = by_name["reactive"]["time_to_steady_state"]
    improved = by_name["predictive"]["time_to_steady_state"] < reactive
    return {
        "scenario": dataclasses.asdict(scenario),
        "strategies": rows,
        "reactive_time_to_steady_state": reactive,
        "improved": improved,
    }


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI grid (one short scenario) instead of the full grid",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=RESULT_PATH,
        help=f"report path (default {RESULT_PATH})",
    )
    args = parser.parse_args(argv)

    names = ["smoke"] if args.smoke else ["quick"]
    report: typing.Dict[str, typing.Any] = {
        "benchmark": "bench_predictive",
        "mode": "smoke" if args.smoke else "full",
        "scenarios": [],
    }
    for name in names:
        scenario = SCENARIOS[name]
        print(f"scenario {name}: recording + {len(STRATEGIES)} runs ...")
        outcome = run_scenario(scenario)
        report["scenarios"].append(outcome)
        header = (
            f"{'strategy':<12} {'steady (s)':>10} {'recovered':>9} "
            f"{'thr (t/s)':>10} {'p99 (ms)':>9}"
        )
        print(header)
        print("-" * len(header))
        for row in outcome["strategies"]:
            print(
                f"{row['strategy']:<12} {row['time_to_steady_state']:>10.2f} "
                f"{str(row['recovered']):>9} {row['throughput_tps']:>10.0f} "
                f"{row['p99_latency_ms']:>9.1f}"
            )
        print(
            f"predictive improved vs reactive: {outcome['improved']} "
            f"(reactive {outcome['reactive_time_to_steady_state']:.2f} s)"
        )

    report["improved"] = all(s["improved"] for s in report["scenarios"])
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
