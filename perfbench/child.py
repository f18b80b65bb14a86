"""One benchmark repeat: build and run one workload, print one JSON line.

``bench.py`` starts one of these per (workload, repeat) in a fresh
interpreter, so ``ru_maxrss`` is this repeat's own peak and no repeat
inherits another's warm caches.  Usage::

    python perfbench/child.py WORKLOAD SEED [--profile | --setup-only]

The JSON line holds set-up and run times, in wall and in reference
seconds (``clock.py``), peak RSS, each run's outputs (the values
``expected.json`` pins plus deterministic counters) and, with
``--profile``, the layer ledger of the runs.  A profiled child takes no
calibration samples, which would show up in its profile.  With
``--setup-only`` the child imports ``repro``, builds every system of the
workload and stops: a cheap extra ``setup_s`` sample.
"""

import time

_STARTED = time.perf_counter()  # set-up time starts here

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import typing  # noqa: E402

from clock import CalibratedClock  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
REPRO_DIR = HERE.parent / "src" / "repro"


def outputs(system: typing.Any, result: typing.Any) -> typing.Dict[str, typing.Any]:
    """What one run produced, read from its public result."""
    return {
        "paradigm": result.paradigm.value,
        "generated_tuples": result.generated_tuples,
        "processed_tuples": result.processed_tuples,
        "stream_bytes": result.stream_bytes,
        "migration_bytes": result.migration_bytes,
        "remote_task_bytes": result.remote_task_bytes,
        "scheduler_rounds": result.scheduler_rounds,
        "reassignments": len(result.reassignment_stats.records),
        "tuples_lost": result.recovery["tuples_lost"],
        "events": system.env.events_processed,
        "batches": sum(
            executor.metrics.processed_batches.total
            for executors in system.executors_by_operator.values()
            for executor in executors
        ),
        "recoveries": result.recovery["recoveries"],
    }


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark repeat")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--profile", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    clock = CalibratedClock(_STARTED, calibrate=not args.profile)

    sys.path.insert(0, str(REPRO_DIR.parent))
    import repro  # noqa: F401  (import time is part of set-up)
    from workloads import WORKLOADS

    profiler = cProfile.Profile() if args.profile else None
    wall_setup_s = setup_s = wall_run_s = run_s = 0.0
    runs = []
    for scenario in WORKLOADS[args.workload].runs(args.seed):
        system = scenario.build()
        wall, reference = clock.mark()
        wall_setup_s += wall
        setup_s += reference
        if args.setup_only:
            del system
            continue
        if profiler is not None:
            profiler.enable()
        result = system.run(duration=scenario.duration, warmup=scenario.warmup)
        if profiler is not None:
            profiler.disable()
        wall, reference = clock.mark()
        wall_run_s += wall
        run_s += reference
        runs.append(outputs(system, result))
        del system, result  # runs must not stack up in memory and inflate the peak
    clock.stop()
    report: typing.Dict[str, typing.Any] = {
        "setup_s": setup_s,
        "wall_setup_s": wall_setup_s,
    }
    if not args.setup_only:
        report.update(
            run_s=run_s,
            wall_run_s=wall_run_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            runs=runs,
        )
    if profiler is not None:
        from ledger import attribute

        report["ledger"] = attribute(pstats.Stats(profiler), str(REPRO_DIR))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
