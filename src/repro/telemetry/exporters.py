"""Telemetry exporters: JSONL event/span log, CSV series, JSON summaries.

One run exports into one directory::

    events.jsonl   meta line + every event and finished span, time-ordered
    series.csv     name,labels,time,value rows for every sampled series
    summary.json   ``SystemResult.to_dict()`` — the machine-readable summary
    sketches.json  per-operator latency-sketch payloads (runs with probes)

``repro report DIR`` (see :mod:`repro.telemetry.report`) renders a human
summary from these artifacts alone — no rerun, no access to the live
objects.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib
import typing

from repro.telemetry.events import Span, TelemetryEvent

ARTIFACT_VERSION = 1

EVENTS_FILE = "events.jsonl"
SERIES_FILE = "series.csv"
SUMMARY_FILE = "summary.json"
SKETCHES_FILE = "sketches.json"


def _json_default(value: typing.Any) -> typing.Any:
    if hasattr(value, "value") and value.__class__.__module__ != "builtins":
        return value.value  # enums (Paradigm, FaultKind, ...)
    return str(value)


def export_run(
    out_dir: typing.Union[str, pathlib.Path],
    telemetry: typing.Any,
    summary: typing.Optional[typing.Dict[str, typing.Any]] = None,
    meta: typing.Optional[typing.Dict[str, typing.Any]] = None,
) -> pathlib.Path:
    """Write the full artifact set for one run; returns the directory."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_events_jsonl(out / EVENTS_FILE, telemetry.bus, meta=meta)
    write_series_csv(out / SERIES_FILE, telemetry.registry)
    payload_fn = getattr(telemetry, "sketches_payload", None)
    sketches = payload_fn() if payload_fn is not None else {}
    if sketches:
        write_sketches(out / SKETCHES_FILE, sketches)
    if summary is not None:
        (out / SUMMARY_FILE).write_text(
            json.dumps(summary, indent=2, sort_keys=True, default=_json_default)
            + "\n"
        )
    return out


def write_events_jsonl(
    path: typing.Union[str, pathlib.Path],
    bus: typing.Any,
    meta: typing.Optional[typing.Dict[str, typing.Any]] = None,
) -> None:
    """Events and finished spans, merged in time order (spans by start)."""
    records: typing.List[typing.Tuple[float, int, typing.Dict]] = []
    for index, event in enumerate(bus.events):
        records.append((event.time, index, event.to_dict()))
    for span in bus.spans:
        records.append((span.start, len(records), span.to_dict()))
    records.sort(key=lambda r: (r[0], r[1]))
    header = {"type": "meta", "version": ARTIFACT_VERSION}
    if meta:
        header.update(meta)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True, default=_json_default) + "\n")
        for _, _, record in records:
            fh.write(json.dumps(record, sort_keys=True, default=_json_default) + "\n")


def write_series_csv(
    path: typing.Union[str, pathlib.Path], registry: typing.Any
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "labels", "time", "value"])
        for series in registry.all_series():
            labels = series.label_text()
            for time, value in series.to_rows():
                writer.writerow([series.name, labels, repr(time), repr(value)])


def write_sketches(
    path: typing.Union[str, pathlib.Path],
    sketches: typing.Dict[str, typing.Any],
) -> None:
    """Per-operator latency-sketch payloads (``Telemetry.sketches_payload``).

    A separate artifact on purpose: ``summary.json`` keeps one schema
    whether telemetry is on or off (the bit-identical-results invariant),
    while sketches only exist on instrumented runs.
    """
    pathlib.Path(path).write_text(
        json.dumps(
            {"version": ARTIFACT_VERSION, "probes": sketches},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def load_sketches(
    path: typing.Union[str, pathlib.Path],
) -> typing.Dict[str, typing.Any]:
    """``probe name -> payload`` from a ``sketches.json`` file."""
    data = json.loads(pathlib.Path(path).read_text())
    probes = data.get("probes", {})
    return dict(probes)


# -- loading -----------------------------------------------------------------


@dataclasses.dataclass
class RunArtifact:
    """An exported run, loaded back from disk."""

    meta: typing.Dict[str, typing.Any]
    events: typing.List[TelemetryEvent]
    spans: typing.List[Span]
    summary: typing.Optional[typing.Dict[str, typing.Any]] = None
    series_rows: typing.List[typing.Tuple[str, str, float, float]] = dataclasses.field(
        default_factory=list
    )
    #: probe name -> sketch payload (``sketches.json``; empty when the
    #: run had no latency probes).
    sketches: typing.Dict[str, typing.Any] = dataclasses.field(default_factory=dict)

    def spans_named(self, name: str) -> typing.List[Span]:
        return [s for s in self.spans if s.name == name]

    def events_of(self, kind: str) -> typing.List[TelemetryEvent]:
        return [e for e in self.events if e.kind == kind]


def load_events_jsonl(path: typing.Union[str, pathlib.Path]) -> RunArtifact:
    meta: typing.Dict[str, typing.Any] = {}
    events: typing.List[TelemetryEvent] = []
    spans: typing.List[Span] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "meta":
                meta = record
            elif kind == "event":
                events.append(TelemetryEvent.from_dict(record))
            elif kind == "span":
                spans.append(Span.from_dict(record))
            else:
                raise ValueError(f"unknown record type {kind!r} in {path}")
    return RunArtifact(meta=meta, events=events, spans=spans)


def load_artifact(path: typing.Union[str, pathlib.Path]) -> RunArtifact:
    """Load a full artifact directory (or a bare ``events.jsonl`` file)."""
    path = pathlib.Path(path)
    if path.is_file():
        return load_events_jsonl(path)
    events_path = path / EVENTS_FILE
    if not events_path.exists():
        raise FileNotFoundError(f"no {EVENTS_FILE} under {path}")
    artifact = load_events_jsonl(events_path)
    summary_path = path / SUMMARY_FILE
    if summary_path.exists():
        artifact.summary = json.loads(summary_path.read_text())
    sketches_path = path / SKETCHES_FILE
    if sketches_path.exists():
        artifact.sketches = load_sketches(sketches_path)
    series_path = path / SERIES_FILE
    if series_path.exists():
        with open(series_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)  # header
            for name, labels, time, value in reader:
                artifact.series_rows.append(
                    (name, labels, float(time), float(value))
                )
    return artifact
