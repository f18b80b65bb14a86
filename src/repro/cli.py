"""Command-line interface.

Run single experiments or paradigm comparisons without writing code::

    python -m repro run --paradigm elasticutor --rate 17000 --duration 60
    python -m repro compare --workload sse --rate 25000 --nodes 16
    python -m repro scale-out --cores 1 2 4 8 16
    python -m repro faults --fault-spec "node_crash@30:node=5"
    python -m repro run --telemetry-out out/run1 && python -m repro report out/run1
    python -m repro sweep spec.json --workers 8 --out out/sweep1
    python -m repro diff out/run1 out/run2 --threshold 0.1

``--json`` switches any run-style command to machine-readable output;
``--telemetry-out DIR`` enables the telemetry layer and exports the
event/span log, metric series and summary there (see
docs/observability.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import typing

from repro.analysis import ResultTable, SingleExecutorHarness
from repro.faults import FaultSpec
from repro.fields import INDEX, check_number
from repro.runtime import Paradigm, SystemResult
from repro.sweep import TrialConfig, build_system
from repro.sweep.spec import PARADIGM_ALIASES
from repro.sweep.trial import export_trial


class UsageError(Exception):
    """The flags describe no system that can be built."""


@contextlib.contextmanager
def _load_step() -> typing.Iterator[None]:
    """Turning flags into a system is the load step: a ``ValueError``
    there (a bad flag value, ``PlacementError``, ``FaultSpecError``) is a
    usage error.  Errors raised while the system runs propagate."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _trial(args: argparse.Namespace, paradigm: str) -> TrialConfig:
    """The :class:`TrialConfig` a run-style command's flags describe
    (docs/sweeps.md maps each flag to its field)."""
    return TrialConfig(
        workload=args.workload,
        paradigm=paradigm,
        rate=args.rate,
        omega=args.omega,
        seed=args.seed,
        duration=args.duration,
        warmup=args.warmup,
        num_nodes=args.nodes,
        cores_per_node=args.cores_per_node,
        source_instances=args.sources,
        executors_per_operator=args.executors,
        shards_per_executor=args.shards,
        num_keys=args.keys,
        skew=args.skew,
        cost_ms=args.cost_ms,
        # Each workload's own default batch size.
        batch_size=10 if args.workload == "sse" else 20,
        system_args={
            "latency_target": args.latency_target_ms / 1000.0,
            "enable_hybrid": args.hybrid,
            "fault_spec": args.fault_spec,
            "network_profile": args.net_profile,
            "detection_delay": args.detection_delay,
            "state_rebuild_bytes_per_s": args.rebuild_mbps * 1e6,
        },
    )


def _run_paradigms(
    args: argparse.Namespace,
    paradigms: typing.Sequence[str],
    per_paradigm: bool = True,
) -> typing.Dict[str, SystemResult]:
    """Build and run the flags' trial once per paradigm, keyed by the
    canonical paradigm name.  ``per_paradigm`` exports telemetry to one
    subdirectory per paradigm and reports progress on stderr."""
    results = {}
    for name in paradigms:
        with _load_step():
            trial = _trial(args, name)
            system = build_system(trial, telemetry=bool(args.telemetry_out))
        result = system.run(duration=trial.duration, warmup=trial.warmup)
        if args.telemetry_out:
            out_dir = args.telemetry_out
            if per_paradigm:
                out_dir = os.path.join(out_dir, trial.paradigm)
            export_trial(out_dir, trial, system, result)
            print(f"... telemetry exported to {out_dir}", file=sys.stderr)
        if per_paradigm:
            print(f"... {trial.paradigm} done", file=sys.stderr)
        results[trial.paradigm] = result
    return results


def _print_results(
    args: argparse.Namespace,
    table: ResultTable,
    results: typing.Mapping[str, SystemResult],
) -> int:
    if args.json:
        print(json.dumps(
            {name: r.to_dict() for name, r in results.items()},
            indent=2, sort_keys=True,
        ))
    else:
        print(table.render())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    [result] = _run_paradigms(args, [args.paradigm], per_paradigm=False).values()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.summary())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    table = ResultTable(
        f"paradigm comparison — {args.workload} workload, "
        f"{args.rate:,.0f} tuples/s offered",
        ["paradigm", "throughput (t/s)", "mean latency (ms)", "p99 (ms)",
         "migration (MB/s)", "remote (MB/s)"],
    )
    results = _run_paradigms(args, [p.value for p in Paradigm])
    for paradigm, result in results.items():
        table.add_row(
            paradigm,
            result.throughput_tps,
            result.latency["mean"] * 1e3,
            result.latency["p99"] * 1e3,
            result.migration_rate / 1e6,
            result.remote_transfer_rate / 1e6,
        )
    return _print_results(args, table, results)


def cmd_faults(args: argparse.Namespace) -> int:
    """Fault-injection demo: same fault schedule, one row per paradigm."""
    args.fault_spec = (
        args.fault_spec or f"node_crash@{args.fault_time}:node={args.nodes - 1}"
    )
    with _load_step():
        spec = FaultSpec.load(args.fault_spec)
    print(f"fault schedule: {spec.to_dsl()}", file=sys.stderr)
    table = ResultTable(
        f"fault recovery — {args.workload} workload, "
        f"{args.rate:,.0f} tuples/s offered",
        ["paradigm", "throughput (t/s)", "p99 (ms)", "tuples lost",
         "rerouted", "downtime (s)", "steady state (s)"],
    )
    results = _run_paradigms(args, args.paradigms)
    for paradigm, result in results.items():
        recovery = result.recovery
        table.add_row(
            paradigm,
            result.throughput_tps,
            result.latency["p99"] * 1e3,
            recovery["tuples_lost"],
            recovery["tuples_rerouted"],
            recovery["downtime_seconds"],
            result.time_to_steady_state,
        )
    return _print_results(args, table, results)


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repo's AST invariant checks (docs/static-analysis.md)."""
    from repro.lint import ALL_RULES, run_lint

    if args.list_rules:
        for factory in ALL_RULES:
            rule = factory()
            print(f"{rule.name}  {rule.description}")
        print("SUP001  every inline suppression carries a justification")
        print("SUP002  every justified suppression still silences a finding")
        return 0
    paths = args.paths or ["src/repro"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise UsageError(f"no such file or directory: {', '.join(missing)}")
    selected = None
    if args.select:
        wanted = {name.strip().upper() for name in args.select.split(",")}
        selected = [f() for f in ALL_RULES if f().name in wanted]
        unknown = wanted - {f().name for f in ALL_RULES}
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
    findings = run_lint(paths, rules=selected)
    if args.json:
        print(json.dumps(
            [
                {"rule": f.rule, "path": f.path, "line": f.line,
                 "message": f.message}
                for f in findings
            ],
            indent=2,
        ))
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a run report from an exported telemetry artifact."""
    from repro.telemetry.exporters import load_artifact
    from repro.telemetry.report import render_report, report_dict

    try:
        artifact = load_artifact(args.path)
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    if args.json:
        print(json.dumps(report_dict(artifact), indent=2, sort_keys=True))
    else:
        print(render_report(artifact, sparkline_width=args.width))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two runs (artifact dirs, summaries, BENCH reports) and
    fail on direction-aware regressions past the threshold."""
    from repro.telemetry.diff import DiffError, diff_paths, regressions

    try:
        deltas, markdown = diff_paths(
            args.baseline,
            args.candidate,
            threshold=args.threshold,
            min_abs=args.min_abs,
            full=args.full,
        )
    except DiffError as exc:
        print(f"repro diff: {exc}", file=sys.stderr)
        return 2
    failed = regressions(deltas)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown)
        print(f"... diff report written to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(
            {
                "baseline": args.baseline,
                "candidate": args.candidate,
                "threshold": args.threshold,
                "compared": len(deltas),
                "regressions": [
                    {
                        "metric": d.key,
                        "baseline": d.baseline,
                        "candidate": d.candidate,
                        "relative": d.relative,
                        "direction": d.direction,
                    }
                    for d in failed
                ],
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        print(markdown, end="")
    return 1 if failed else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a declarative trial sweep in parallel (docs/sweeps.md)."""
    import pathlib

    from repro.sweep import SweepRunner, SweepSpec

    def progress(done: int, total: int, record, cached: bool) -> None:
        source = "cached" if cached else "ran"
        print(
            f"[sweep {spec.name}] {done}/{total} {record.trial_id} "
            f"{record.status} ({source})",
            file=sys.stderr,
        )

    with _load_step():
        spec = SweepSpec.from_file(args.spec)
        out = pathlib.Path(args.out or f"sweep_results/{spec.name}")
        cache_dir = pathlib.Path(args.cache) if args.cache else out / "cache"
        workers = check_number("workers", args.workers, INDEX) or os.cpu_count() or 1
        runner = SweepRunner(
            spec,
            workers=min(workers, len(spec)),
            timeout=args.timeout,
            retries=args.retries,
            cache_dir=cache_dir,
            reuse_failures=not args.retry_failed,
            telemetry_dir=args.telemetry_out,
            progress=progress,
        )
    if args.dry_run:
        print(f"sweep {spec.name!r}: {len(spec)} trials")
        for trial in spec:
            print(f"  {trial.trial_id}  {json.dumps(trial.to_dict(), sort_keys=True)}")
        return 0
    result = runner.run()
    results_path, summary_path = result.write(out)
    if args.json:
        print(json.dumps(result.summary_dict(), indent=2, sort_keys=True))
    else:
        counts = result.status_counts()
        table = ResultTable(
            f"sweep {spec.name} — {len(result.records)} trials, "
            f"{result.workers} workers, {result.wall_seconds:.1f}s",
            ["ok", "failed", "timeout", "executed", "cached", "retried"],
        )
        table.add_row(
            counts["ok"], counts["failed"], counts["timeout"],
            result.executed, result.cached, result.retried,
        )
        print(table.render())
        print(f"results : {results_path}")
        print(f"summary : {summary_path}")
    if result.failures:
        for record in result.failures:
            print(
                f"!! {record.trial_id} {record.status}: "
                f"{(record.error or {}).get('message', '')}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_scale_out(args: argparse.Namespace) -> int:
    with _load_step():
        harness = SingleExecutorHarness(
            cost_per_tuple=args.cost_ms / 1000.0,
            tuple_bytes=args.tuple_bytes,
            omega=args.omega,
        )
        for cores in args.cores:
            harness.check_measure(cores, args.duration, args.warmup)
    table = ResultTable(
        "single elastic executor scale-out",
        ["cores", "throughput (t/s)", "efficiency", "p99 (ms)"],
    )
    for cores in args.cores:
        measured = harness.measure(cores, duration=args.duration,
                                   warmup=args.warmup)
        table.add_row(
            cores, measured["throughput"], measured["efficiency"],
            measured["latency_p99"] * 1e3,
        )
    print(table.render())
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=("micro", "sse"), default="micro")
    parser.add_argument("--rate", type=float, default=17_000.0,
                        help="offered tuples/second")
    parser.add_argument("--keys", type=int, default=10_000,
                        help="distinct keys (micro) or stocks (sse)")
    parser.add_argument("--skew", type=float, default=0.8,
                        help="zipf skew (micro) or stock popularity skew (sse)")
    parser.add_argument("--cost-ms", type=float, default=1.0,
                        help="CPU cost per tuple in ms")
    parser.add_argument("--omega", type=float, default=2.0,
                        help="key shuffles per minute")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--cores-per-node", type=int, default=4)
    parser.add_argument("--sources", type=int, default=4)
    parser.add_argument("--executors", type=int, default=8,
                        help="executors per operator (y)")
    parser.add_argument("--shards", type=int, default=32,
                        help="shards per executor (z)")
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument("--warmup", type=float, default=20.0)
    parser.add_argument("--latency-target-ms", type=float, default=50.0)
    parser.add_argument("--hybrid", action="store_true",
                        help="enable the hybrid split/merge controller")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--fault-spec", default=None,
        help="fault schedule: DSL text ('node_crash@30:node=5;...'), JSON, "
             "or a path to a spec file (see docs/faults.md)",
    )
    parser.add_argument(
        "--net-profile", default=None, metavar="NAME|SPEC",
        help="network realism profile: lan | wan | cloud, a JSON spec "
             "file, or inline JSON (see docs/network.md); default: plain "
             "constant-latency fabric",
    )
    parser.add_argument("--detection-delay", type=float, default=0.25,
                        help="seconds between a failure and recovery start")
    parser.add_argument("--rebuild-mbps", type=float, default=100.0,
                        help="state rebuild rate in MB/s for lost replicas")
    parser.add_argument("--json", action="store_true",
                        help="print machine-readable JSON instead of text")
    parser.add_argument(
        "--telemetry-out", default=None, metavar="DIR",
        help="enable telemetry and export events.jsonl / series.csv / "
             "sketches.json / summary.json to DIR (per-paradigm "
             "subdirectories for compare/faults)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Elasticutor reproduction (SIGMOD 2019) — simulation runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one paradigm once")
    run_parser.add_argument(
        "--paradigm", choices=sorted(PARADIGM_ALIASES), default="elasticutor"
    )
    _add_common(run_parser)
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser("compare", help="run all four paradigms")
    _add_common(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    faults_parser = sub.add_parser(
        "faults", help="fault-injection demo across paradigms"
    )
    faults_parser.add_argument(
        "--paradigms", nargs="+", choices=sorted(PARADIGM_ALIASES),
        default=["elasticutor", "rc", "static"],
    )
    faults_parser.add_argument(
        "--fault-time", type=float, default=30.0,
        help="crash time for the default single-node-crash schedule",
    )
    _add_common(faults_parser)
    faults_parser.set_defaults(func=cmd_faults)

    sweep_parser = sub.add_parser(
        "sweep",
        help="run a declarative trial grid in parallel with resumable "
             "caching (docs/sweeps.md)",
    )
    sweep_parser.add_argument(
        "spec", help="JSON sweep spec (name/base/grid/trials)"
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0 = one per CPU core, capped at the "
             "trial count; 1 = serial in-process)",
    )
    sweep_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory for results.jsonl + summary.json "
             "(default sweep_results/<spec name>)",
    )
    sweep_parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="result cache directory (default <out>/cache); reruns and "
             "resumes reuse finished cells from here",
    )
    sweep_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-trial wall-clock budget (specs may override "
             "per trial via timeout_seconds)",
    )
    sweep_parser.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts for a crashed trial or dead worker",
    )
    sweep_parser.add_argument(
        "--retry-failed", action="store_true",
        help="re-execute trials whose cached record is a failure/timeout",
    )
    sweep_parser.add_argument(
        "--telemetry-out", default=None, metavar="DIR",
        help="export each trial's events.jsonl / series.csv / "
             "sketches.json / summary.json to DIR/<trial_id> (render "
             "with 'repro report DIR/<trial_id>')",
    )
    sweep_parser.add_argument("--json", action="store_true",
                              help="machine-readable summary on stdout")
    sweep_parser.add_argument("--dry-run", action="store_true",
                              help="list trial ids and parameters, run nothing")
    sweep_parser.set_defaults(func=cmd_sweep)

    scale_parser = sub.add_parser(
        "scale-out", help="scale one elastic executor over CPU cores"
    )
    scale_parser.add_argument("--cores", type=int, nargs="+",
                              default=[1, 2, 4, 8, 16])
    scale_parser.add_argument("--cost-ms", type=float, default=1.0)
    scale_parser.add_argument("--tuple-bytes", type=int, default=128)
    scale_parser.add_argument("--omega", type=float, default=0.0)
    scale_parser.add_argument("--duration", type=float, default=10.0)
    scale_parser.add_argument("--warmup", type=float, default=5.0)
    scale_parser.set_defaults(func=cmd_scale_out)

    report_parser = sub.add_parser(
        "report", help="render a run report from an exported telemetry dir"
    )
    report_parser.add_argument(
        "path", help="telemetry directory (or events.jsonl) from --telemetry-out"
    )
    report_parser.add_argument("--json", action="store_true",
                               help="machine-readable report")
    report_parser.add_argument("--width", type=int, default=40,
                               help="sparkline width in the timeline table")
    report_parser.set_defaults(func=cmd_report)

    diff_parser = sub.add_parser(
        "diff",
        help="compare two runs (telemetry dirs, --json summaries, or "
             "BENCH_*.json) and fail on regressions past the threshold",
    )
    diff_parser.add_argument(
        "baseline", help="baseline artifact: telemetry dir or JSON file"
    )
    diff_parser.add_argument(
        "candidate", help="candidate artifact: telemetry dir or JSON file"
    )
    diff_parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative regression threshold (0.10 = 10%%, direction-aware)",
    )
    diff_parser.add_argument(
        "--min-abs", type=float, default=1e-6,
        help="ignore absolute deltas below this, whatever the relative "
             "change (filters float noise on near-zero metrics)",
    )
    diff_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the markdown report to FILE",
    )
    diff_parser.add_argument("--full", action="store_true",
                             help="tabulate unchanged metrics too")
    diff_parser.add_argument("--json", action="store_true",
                             help="machine-readable regression list")
    diff_parser.set_defaults(func=cmd_diff)

    lint_parser = sub.add_parser(
        "lint", help="run the repo's AST invariant checks"
    )
    lint_parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    lint_parser.add_argument("--select",
                             help="comma-separated rule names (e.g. DET001,HOT001)")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the rule catalog and exit")
    lint_parser.add_argument("--json", action="store_true",
                             help="machine-readable findings")
    lint_parser.set_defaults(func=cmd_lint)
    return parser


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
