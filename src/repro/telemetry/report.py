"""Run-report rendering and span analytics over exported telemetry.

``repro report DIR`` renders everything below from the artifact files
alone (``events.jsonl`` + optional ``series.csv``/``summary.json``) —
the run itself is not needed.  The same helper functions are used by the
figure benchmarks on live buses, so the benchmark numbers and the
offline report are one code path.
"""

from __future__ import annotations

import math
import typing

from repro.telemetry.events import Span, TelemetryEvent
from repro.telemetry.exporters import RunArtifact, load_artifact

#: Canonical phase order for reassignment-protocol spans (Figure 8):
#: labeling-tuple pause -> in-flight drain -> state move -> routing update.
REASSIGN_PHASES = ("pause", "drain", "migration", "routing_update")

SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


# -- Figure 8: reassignment breakdown ---------------------------------------


def reassignment_breakdown(
    source: typing.Union[RunArtifact, typing.Sequence[TelemetryEvent], typing.Any],
    inter_node: bool,
) -> typing.Dict[str, float]:
    """Mean sync / migration / total seconds over ``reassignment`` events.

    Same shape and same values as
    :meth:`repro.executors.stats.ReassignmentStats.mean_breakdown` — the
    events carry exactly the fields of each ``ReassignmentRecord``, so an
    exported artifact reproduces the in-process numbers.
    """
    events = _reassignment_events(source)
    selected = [e for e in events if bool(e.attrs.get("inter_node")) == inter_node]
    if not selected:
        return {"count": 0, "sync": 0.0, "migration": 0.0, "total": 0.0}
    n = len(selected)
    sync = sum(float(e.attrs["sync_seconds"]) for e in selected) / n
    migration = sum(float(e.attrs["migration_seconds"]) for e in selected) / n
    # Summed per-record like ReassignmentStats.mean_breakdown (not
    # sync + migration of the means) so the two agree bit-for-bit.
    total = sum(
        float(e.attrs["sync_seconds"]) + float(e.attrs["migration_seconds"])
        for e in selected
    ) / n
    return {"count": n, "sync": sync, "migration": migration, "total": total}


def _reassignment_events(source: typing.Any) -> typing.List[TelemetryEvent]:
    if hasattr(source, "events_of"):
        return source.events_of("reassignment")
    return [e for e in source if e.kind == "reassignment"]


def phase_breakdown(
    spans: typing.Sequence[Span],
    phases: typing.Sequence[str] = REASSIGN_PHASES,
) -> typing.Dict[str, float]:
    """Mean seconds per phase over closed spans (plus ``count``/``total``)."""
    closed = [s for s in spans if s.closed]
    out: typing.Dict[str, float] = {label: 0.0 for label in phases}
    out["count"] = len(closed)
    out["total"] = 0.0
    if not closed:
        return out
    for span in closed:
        span_phases = span.phases()
        for label in phases:
            out[label] += span_phases.get(label, 0.0)
        out["total"] += span.duration
    for label in (*phases, "total"):
        out[label] /= len(closed)
    return out


# -- span histograms --------------------------------------------------------


def percentile(sorted_values: typing.Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence.

    The nearest-rank definition: the smallest value with at least
    ``q * n`` observations at or below it — index ``ceil(q * n) - 1``,
    clamped to the valid range so q=0.0 gives the minimum and q=1.0 the
    maximum (a singleton returns its only element at every q).  This is
    the exact oracle :class:`repro.telemetry.sketch.QuantileSketch` is
    property-tested against, so the two must share one rank convention.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = max(0, min(n - 1, math.ceil(q * n) - 1))
    return sorted_values[rank]


def span_histogram(
    spans: typing.Sequence[Span],
) -> typing.Dict[str, typing.Dict[str, float]]:
    """Per-span-name duration stats: count, mean, p50, p95, max (seconds)."""
    by_name: typing.Dict[str, typing.List[float]] = {}
    for span in spans:
        if span.closed:
            by_name.setdefault(span.name, []).append(span.duration)
    out: typing.Dict[str, typing.Dict[str, float]] = {}
    for name, durations in sorted(by_name.items()):
        durations.sort()
        out[name] = {
            "count": len(durations),
            "mean": sum(durations) / len(durations),
            "p50": percentile(durations, 0.50),
            "p95": percentile(durations, 0.95),
            "max": durations[-1],
        }
    return out


# -- utilization timeline ---------------------------------------------------


def sparkline(values: typing.Sequence[float], width: int = 40) -> str:
    """Downsample ``values`` to ``width`` buckets of block characters."""
    if not values:
        return ""
    buckets: typing.List[float] = []
    per_bucket = -(-len(values) // width)  # ceiling: at most ``width`` buckets
    for i in range(0, len(values), per_bucket):
        chunk = values[i : i + per_bucket]
        buckets.append(sum(chunk) / len(chunk))
    top = max(buckets)
    if top <= 0:
        return SPARK_BLOCKS[0] * len(buckets)
    scale = len(SPARK_BLOCKS) - 1
    return "".join(
        SPARK_BLOCKS[max(0, min(scale, int(round(v / top * scale))))]
        for v in buckets
    )


def executor_series(
    artifact: RunArtifact, name: str
) -> typing.Dict[str, typing.List[typing.Tuple[float, float]]]:
    """``series.csv`` rows of one metric, keyed by executor label."""
    out: typing.Dict[str, typing.List[typing.Tuple[float, float]]] = {}
    for row_name, labels, time, value in artifact.series_rows:
        if row_name != name:
            continue
        executor = ""
        for part in labels.split(","):
            if part.startswith("executor="):
                executor = part[len("executor="):]
        out.setdefault(executor, []).append((time, value))
    return out


def core_timeline(
    artifact: RunArtifact,
) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
    """Per executor, its sampled ``executor_cores`` values with their
    count, mean and max (the report's core allocation timeline)."""
    out: typing.Dict[str, typing.Dict[str, typing.Any]] = {}
    cores = executor_series(artifact, "executor_cores")
    for executor in sorted(cores):
        values = [v for _, v in cores[executor]]
        out[executor] = {
            "samples": len(values),
            "mean": sum(values) / len(values),
            "max": max(values),
            "values": values,
        }
    return out


# -- recovery phases --------------------------------------------------------


def recovery_timeline(artifact: RunArtifact) -> typing.List[typing.Dict[str, typing.Any]]:
    """One entry per recovery span: fault kind, phase durations, children."""
    entries = []
    children: typing.Dict[int, typing.List[Span]] = {}
    for span in artifact.spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    for span in artifact.spans_named("recovery"):
        entries.append(
            {
                "start": span.start,
                "duration": span.duration,
                "fault": span.attrs.get("fault", ""),
                "detail": span.attrs.get("detail", ""),
                "phases": span.phases(),
                "children": [
                    f"{child.name}[{child.source}] {child.duration * 1e3:.2f} ms"
                    for child in children.get(span.span_id, [])
                ],
            }
        )
    return entries


# -- the rendered report ----------------------------------------------------


def render_report(
    artifact: typing.Union[RunArtifact, str],
    sparkline_width: int = 40,
) -> str:
    """Human-readable run report from an exported artifact."""
    from repro.analysis import ResultTable  # lazy: avoids an import cycle

    if not isinstance(artifact, RunArtifact):
        artifact = load_artifact(artifact)
    sections: typing.List[str] = []

    summary = artifact.summary or {}
    head = ["run report"]
    if artifact.meta.get("paradigm"):
        head.append(f"paradigm            : {artifact.meta['paradigm']}")
    elif summary.get("paradigm"):
        head.append(f"paradigm            : {summary['paradigm']}")
    if summary:
        head.append(f"duration / warmup   : {summary.get('duration', 0):.1f}s / "
                    f"{summary.get('warmup', 0):.1f}s")
        head.append(f"throughput          : {summary.get('throughput_tps', 0):,.0f} tuples/s")
        latency = summary.get("latency") or {}
        if latency:
            head.append(f"latency mean / p99  : {latency.get('mean', 0) * 1e3:.2f} ms / "
                        f"{latency.get('p99', 0) * 1e3:.2f} ms")
        traces = summary.get("traces") or {}
        if traces.get("sampled"):
            head.append(
                f"traces              : {traces['sampled']} sampled, "
                f"{traces.get('incomplete', 0)} incomplete (excluded)"
            )
    head.append(f"events / spans      : {len(artifact.events)} / {len(artifact.spans)}")
    sections.append("\n".join(head))

    # Per-tuple end-to-end latency from the mergeable sketches (exact
    # counts, percentiles within the sketch's relative-error bound).
    if artifact.sketches:
        table = ResultTable(
            "per-tuple end-to-end latency (sketch, ms)",
            ["operator", "tuples", "mean", "p50", "p95", "p99", "max"],
        )
        for name in sorted(artifact.sketches):
            stats = artifact.sketches[name]["summary"]
            table.add_row(
                name, int(stats["count"]), stats["mean"] * 1e3,
                stats["p50"] * 1e3, stats["p95"] * 1e3, stats["p99"] * 1e3,
                stats["max"] * 1e3,
            )
        sections.append(table.render())

    # Figure-8-style reassignment latency breakdown.
    if _reassignment_events(artifact):
        table = ResultTable(
            "shard reassignment latency breakdown (ms per shard)",
            ["locality", "count", "sync", "state migration", "total"],
        )
        for inter_node, label in ((False, "intra-node"), (True, "inter-node")):
            b = reassignment_breakdown(artifact, inter_node)
            table.add_row(label, b["count"], b["sync"] * 1e3,
                          b["migration"] * 1e3, b["total"] * 1e3)
        sections.append(table.render())

    # Protocol phase means (pause/drain/migration/routing update).
    phase_rows = []
    for name, title in (("reassign", "elastic reassign"), ("rc_sync", "RC global sync")):
        spans = artifact.spans_named(name)
        if spans:
            phase_rows.append((title, phase_breakdown(spans)))
    if phase_rows:
        table = ResultTable(
            "control-plane protocol phases (mean ms)",
            ["protocol", "count", *REASSIGN_PHASES, "total"],
        )
        for title, b in phase_rows:
            table.add_row(
                title, b["count"],
                *(b[p] * 1e3 for p in REASSIGN_PHASES), b["total"] * 1e3,
            )
        sections.append(table.render())

    # Span duration histogram.
    histogram = span_histogram(artifact.spans)
    if histogram:
        table = ResultTable(
            "span durations (ms)",
            ["span", "count", "mean", "p50", "p95", "max"],
        )
        for name, stats in histogram.items():
            table.add_row(
                name, stats["count"], stats["mean"] * 1e3, stats["p50"] * 1e3,
                stats["p95"] * 1e3, stats["max"] * 1e3,
            )
        sections.append(table.render())

    # Per-executor utilization timeline (core allocation over time).
    timeline = core_timeline(artifact)
    if timeline:
        table = ResultTable(
            "per-executor core allocation timeline",
            ["executor", "samples", "mean", "max", "timeline"],
        )
        for executor, row in timeline.items():
            table.add_row(
                executor, row["samples"], row["mean"], row["max"],
                sparkline(row["values"], width=sparkline_width),
            )
        sections.append(table.render())

    # Recovery phases.
    recoveries = recovery_timeline(artifact)
    if recoveries:
        lines = ["fault recovery phases:"]
        for entry in recoveries:
            phases = ", ".join(
                f"{label}={seconds * 1e3:.2f}ms"
                for label, seconds in entry["phases"].items()
            )
            lines.append(
                f"  t={entry['start']:.2f}s {entry['fault']} {entry['detail']} "
                f"({entry['duration'] * 1e3:.2f} ms): {phases}"
            )
            for child in entry["children"]:
                lines.append(f"    - {child}")
        sections.append("\n".join(lines))

    faults = artifact.events_of("fault")
    if faults:
        lines = ["fault injections:"]
        for event in faults:
            detail = " ".join(f"{k}={v}" for k, v in sorted(event.attrs.items()))
            lines.append(f"  t={event.time:.2f}s {detail}")
        sections.append("\n".join(lines))

    return "\n\n".join(sections)


def report_dict(
    artifact: typing.Union[RunArtifact, str]
) -> typing.Dict[str, typing.Any]:
    """Machine-readable equivalent of :func:`render_report`."""
    if not isinstance(artifact, RunArtifact):
        artifact = load_artifact(artifact)
    return {
        "meta": artifact.meta,
        "summary": artifact.summary,
        "counts": {"events": len(artifact.events), "spans": len(artifact.spans)},
        "reassignment": {
            "intra_node": reassignment_breakdown(artifact, False),
            "inter_node": reassignment_breakdown(artifact, True),
        },
        "phases": {
            name: phase_breakdown(artifact.spans_named(name))
            for name in ("reassign", "rc_sync")
            if artifact.spans_named(name)
        },
        "span_histogram": span_histogram(artifact.spans),
        "core_timeline": {
            executor: {k: row[k] for k in ("samples", "mean", "max")}
            for executor, row in core_timeline(artifact).items()
        },
        "recovery": recovery_timeline(artifact),
        "sketches": {
            name: payload["summary"]
            for name, payload in sorted(artifact.sketches.items())
        },
    }
