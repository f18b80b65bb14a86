"""Kernel wall-clock measurement: events/sec and batches/sec.

Four canonical scenarios exercise the hot path from different angles:

- ``micro``: steady-state micro-benchmark (generator -> calculator) under
  the Elasticutor paradigm — the pure data-plane number, dominated by
  store put/get events, task wakeups and batch processing.
- ``micro_telemetry``: the same run with the telemetry layer on (event
  bus, metric sampling, per-tuple latency sketches) — its wall-clock
  ratio to ``micro`` bounds the instrumentation overhead.
- ``burst``: the fig07 regime — frequent key shuffles (high omega) force
  rebalancing rounds and shard reassignments, mixing control-plane events
  (labels, pauses, migrations) into the stream.
- ``faulted``: a run with a link degradation and a node crash, covering
  the recovery protocols (dead-letter reapers, orphan re-homing).

Every scenario is fully deterministic, so the *event count* of a scenario
is a build invariant: a kernel change that alters it has changed
behaviour, not just speed.  The expected counts are recorded in the
committed baseline and checked by ``perf.check``.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import io
import json
import pathlib
import pstats
import statistics
import time
import typing

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_kernel.json"
BASELINE_PATH = REPO_ROOT / "perf" / "baseline.json"


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One deterministic system run measured wall-clock."""

    name: str
    description: str
    paradigm: str
    rate: float
    duration: float
    warmup: float
    omega: float = 2.0
    fault_spec: typing.Optional[str] = None
    num_keys: int = 1000
    skew: float = 0.8
    batch_size: int = 20
    seed: int = 7
    num_nodes: int = 4
    cores_per_node: int = 4
    source_instances: int = 2
    executors_per_operator: int = 4
    shards_per_executor: int = 16
    #: Run with the telemetry layer on (event bus, metric sampling,
    #: per-tuple latency sketches) — used to bound instrumentation cost.
    telemetry: bool = False

    def build(self):
        """A fresh StreamSystem for this scenario (import deferred so the
        harness module stays importable without src on the path)."""
        from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig

        workload = MicroBenchmarkWorkload(
            rate=self.rate,
            num_keys=self.num_keys,
            skew=self.skew,
            omega=self.omega,
            batch_size=self.batch_size,
            seed=self.seed,
        )
        topology = workload.build_topology(
            executors_per_operator=self.executors_per_operator,
            shards_per_executor=self.shards_per_executor,
        )
        config = SystemConfig(
            paradigm=Paradigm(self.paradigm),
            num_nodes=self.num_nodes,
            cores_per_node=self.cores_per_node,
            source_instances=self.source_instances,
            fault_spec=self.fault_spec,
            telemetry=self.telemetry,
        )
        return StreamSystem(topology, workload, config)


SCENARIOS: typing.Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="micro",
            description="steady-state micro benchmark (elasticutor)",
            paradigm="elasticutor",
            rate=12000.0,
            duration=40.0,
            warmup=10.0,
        ),
        Scenario(
            name="micro_telemetry",
            description="micro with full telemetry (tracing overhead bound)",
            paradigm="elasticutor",
            rate=12000.0,
            duration=40.0,
            warmup=10.0,
            telemetry=True,
        ),
        Scenario(
            name="burst",
            description="fig07-style elastic burst (omega=8 key shuffles)",
            paradigm="elasticutor",
            rate=8000.0,
            omega=8.0,
            duration=20.0,
            warmup=5.0,
        ),
        Scenario(
            name="faulted",
            description="link degrade + node crash mid-run",
            paradigm="elasticutor",
            rate=8000.0,
            duration=20.0,
            warmup=5.0,
            fault_spec="link_degrade@6:node=1,factor=0.25,duration=2;node_crash@10:node=3",
        ),
    )
}


@dataclasses.dataclass
class ScenarioResult:
    """Measured outcome of one scenario.

    ``wall_seconds``/``events_per_sec`` are best-of-``repeats`` (the
    cleanest estimate of kernel speed on a quiet machine); the median
    fields summarize the *typical* repeat, so a run whose best and
    median disagree wildly is telling you the machine was noisy, not
    the kernel slow.  ``walls`` keeps every repeat's wall time in run
    order; :func:`run_harness` interleaves scenarios, so the i-th walls
    of two scenarios come from the same round.
    """

    name: str
    events: int
    batches: int
    wall_seconds: float
    events_per_sec: float
    batches_per_sec: float
    throughput_tps: float
    processed_tuples: int
    repeats: int
    median_wall_seconds: float
    median_events_per_sec: float
    walls: typing.List[float]

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return dataclasses.asdict(self)


def _run_once(
    scenario: Scenario,
) -> typing.Tuple[float, int, int, int, float]:
    """One timed run: ``(wall, events, batches, processed, throughput)``.

    The previous run's garbage is collected before the timer starts, so
    no run pays the collector for the one before it.
    """
    system = scenario.build()
    gc.collect()
    start = time.perf_counter()
    result = system.run(duration=scenario.duration, warmup=scenario.warmup)
    wall = time.perf_counter() - start
    events = system.env.events_processed
    batches = sum(
        executor.metrics.processed_batches.total
        for executors in system.executors_by_operator.values()
        for executor in executors
    )
    return wall, events, batches, result.processed_tuples, result.throughput_tps


def _to_result(
    name: str,
    samples: typing.Sequence[typing.Tuple[float, int, int, int, float]],
) -> ScenarioResult:
    best = min(samples, key=lambda sample: sample[0])
    wall, events, batches, processed, throughput = best
    median_wall = statistics.median(sample[0] for sample in samples)
    return ScenarioResult(
        name=name,
        events=events,
        batches=batches,
        wall_seconds=wall,
        events_per_sec=events / wall,
        batches_per_sec=batches / wall,
        throughput_tps=throughput,
        processed_tuples=processed,
        repeats=len(samples),
        median_wall_seconds=median_wall,
        # The work is deterministic, so every repeat processes the same
        # event count — the median rate is just events over median wall.
        median_events_per_sec=events / median_wall,
        walls=[sample[0] for sample in samples],
    )


def measure_scenario(scenario: Scenario, repeats: int = 3) -> ScenarioResult:
    """Run ``scenario`` ``repeats`` times; report fastest plus median.

    Best-of-N is the standard way to suppress scheduler/GC noise when the
    workload itself is deterministic: every repeat does identical work, so
    the minimum is the cleanest estimate of the kernel's speed.  The
    median rides along as a noise indicator.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    samples = [_run_once(scenario) for _ in range(repeats)]
    return _to_result(scenario.name, samples)


def profile_scenario(scenario: Scenario, top: int = 25) -> str:
    """cProfile one run of ``scenario``; return the top-``top`` report.

    Sorted by cumulative time, which surfaces the hot *paths* (event
    dispatch, pipeline callbacks, workload draws) rather than leaf
    functions.  Profiling overhead is substantial, so this run's wall
    time is never mixed into the measured samples.
    """
    system = scenario.build()
    profiler = cProfile.Profile()
    profiler.enable()
    system.run(duration=scenario.duration, warmup=scenario.warmup)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def run_harness(
    names: typing.Optional[typing.Sequence[str]] = None,
    repeats: int = 3,
    profile: bool = False,
) -> typing.Dict[str, typing.Any]:
    """Measure the requested scenarios and return the report dict.

    Repeats are interleaved round-robin across the selected scenarios
    rather than run in per-scenario blocks: slow machine drift (thermal
    throttling, noisy neighbours) then lands on every scenario evenly,
    which keeps *ratios* between scenarios — in particular the
    ``micro_telemetry`` vs ``micro`` overhead bound checked by
    ``perf.check``, a median of per-round ratios — honest.

    With ``profile=True`` each scenario gets one extra cProfile'd run
    (after the timed repeats, so the instrumentation never pollutes the
    measurements) and the report gains a ``profiles`` section with the
    top-25 cumulative-time entries per scenario.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    selected = list(names) if names else list(SCENARIOS)
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s): {unknown}; have {sorted(SCENARIOS)}")
    samples: typing.Dict[str, typing.List[typing.Tuple[float, int, int, int, float]]]
    samples = {name: [] for name in selected}
    for _ in range(repeats):
        for name in selected:
            samples[name].append(_run_once(SCENARIOS[name]))
    report: typing.Dict[str, typing.Any] = {
        "schema": 1,
        "unit": "wall-clock events/sec and batches/sec, best of N repeats",
        "scenarios": {
            name: _to_result(name, samples[name]).to_dict()
            for name in selected
        },
    }
    if profile:
        report["profiles"] = {
            name: profile_scenario(SCENARIOS[name]) for name in selected
        }
    return report


def load_baseline(path: pathlib.Path = BASELINE_PATH) -> typing.Dict[str, typing.Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_report(
    report: typing.Dict[str, typing.Any], path: pathlib.Path = RESULT_PATH
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """Minimal CLI — ``PYTHONPATH=src python perf/harness.py [--profile]``.

    The full-featured front end (reference comparison, drift table) is
    ``benchmarks/bench_kernel.py``; this entry point exists for quick
    measurement and profiling loops while working on the kernel.
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenarios",
        nargs="*",
        choices=[[], *SCENARIOS],
        help=f"scenarios to run (default: all of {', '.join(SCENARIOS)})",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="add one cProfile'd run per scenario; the top-25 "
        "cumulative-time entries land in the report's 'profiles' section",
    )
    parser.add_argument("--out", type=pathlib.Path, default=RESULT_PATH)
    args = parser.parse_args(argv)
    report = run_harness(
        args.scenarios or None, repeats=args.repeats, profile=args.profile
    )
    for name, row in report["scenarios"].items():
        print(
            f"{name:<16} events={row['events']:,} "
            f"best={row['events_per_sec']:,.0f}/s "
            f"median={row['median_events_per_sec']:,.0f}/s"
        )
    if args.profile:
        for name, text in report["profiles"].items():
            print(f"\n=== cProfile: {name} ===\n{text}")
    write_report(report, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
