"""The telemetry layer: determinism, exporters, spans, report parity.

The two load-bearing properties (docs/observability.md):

- enabling telemetry must not change simulation results — the bus only
  *reads*, it never consumes virtual time or touches the RNG;
- an exported artifact must reproduce the in-process numbers exactly
  (the ``repro report`` path and the live benchmarks are one code path).
"""

import hashlib
import json
import sys

import pytest

from repro import FaultSpec, MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig
from repro.cli import main
from repro.executors import task as task_module
from repro.sim import Environment
from repro.telemetry import NULL_BUS, NULL_SPAN, EventBus, RingSeries
from repro.telemetry.exporters import export_run, load_artifact
from repro.telemetry.report import (
    REASSIGN_PHASES,
    phase_breakdown,
    reassignment_breakdown,
    render_report,
    report_dict,
    sparkline,
)
from repro.telemetry.sketch import FOLD_THRESHOLD

FAULTY_SPEC = "core_failure@6:node=1; node_crash@9:node=3"


def run_once(paradigm, telemetry, fault_spec=None, seed=7):
    workload = MicroBenchmarkWorkload(
        rate=5000, num_keys=1000, skew=0.8, omega=4.0, batch_size=20, seed=seed
    )
    topology = workload.build_topology(
        executors_per_operator=4, shards_per_executor=16
    )
    config = SystemConfig(
        paradigm=paradigm, num_nodes=4, cores_per_node=4, source_instances=2,
        fault_spec=FaultSpec.load(fault_spec) if fault_spec else None,
        telemetry=telemetry,
    )
    system = StreamSystem(topology, workload, config)
    result = system.run(duration=15.0, warmup=5.0)
    return result, system


def sim_fingerprint(result):
    """Everything simulation-derived (wall-clock scheduler timing excluded)."""
    d = result.to_dict()
    d.pop("scheduler_mean_wall_seconds", None)
    return json.dumps(d, sort_keys=True)


# -- the bus ----------------------------------------------------------------


class TestEventBus:
    def test_emit_and_filter(self):
        env = Environment()
        bus = EventBus(env)
        bus.emit("ping", source="a", value=1)
        bus.emit("pong", source="b")
        assert [e.kind for e in bus.events] == ["ping", "pong"]
        assert bus.events_of("ping")[0].attrs == {"value": 1}

    def test_span_phases_and_marks(self):
        env = Environment()
        bus = EventBus(env)
        span = bus.begin_span("reassign", source="x", shard=3)
        env.run(until=1.0)
        span.mark("pause")
        env.run(until=3.0)
        span.mark("drain")
        env.run(until=3.5)
        span.finish(status="ok")
        assert span.closed and span.duration == pytest.approx(3.5)
        phases = span.phases()
        assert phases["pause"] == pytest.approx(1.0)
        assert phases["drain"] == pytest.approx(2.0)
        assert phases["tail"] == pytest.approx(0.5)
        # Only finished spans land on the bus.
        assert bus.spans_named("reassign") == [span]

    def test_finish_is_idempotent(self):
        env = Environment()
        bus = EventBus(env)
        span = bus.begin_span("s")
        span.finish(status="ok")
        env.run(until=2.0)
        span.finish(status="aborted")  # the try/finally safety net
        assert span.attrs["status"] == "ok"
        assert span.end == 0.0
        assert len(bus.spans) == 1

    def test_null_bus_is_inert(self):
        assert not NULL_BUS.enabled
        NULL_BUS.emit("anything", source="x", k=1)
        span = NULL_BUS.begin_span("s", shard=1)
        assert span is NULL_SPAN
        span.mark("pause").set(a=1).finish(status="ok")
        assert NULL_BUS.events == [] and NULL_BUS.spans == []
        assert NULL_SPAN.marks == [] and NULL_SPAN.attrs == {}


class TestRegistry:
    def test_ring_series_drops_oldest(self):
        series = RingSeries("s", capacity=16)
        for i in range(40):
            series.record(float(i), float(i))
        assert len(series.times) <= 16
        assert series.dropped == 40 - len(series.times)
        assert series.last == 39.0
        # Oldest points were trimmed, newest kept, order preserved.
        assert list(series.times) == sorted(series.times)
        assert series.times[-1] == 39.0

    def test_record_trims_by_chunk_and_keeps_time_order(self):
        series = RingSeries("a", capacity=8)
        for i in range(20):
            series.record(float(i), float(-i))
        # Each trim drops capacity // 8 = 1 point: the newest 8 remain.
        assert series.to_rows() == [(float(i), float(-i)) for i in range(12, 20)]
        assert series.dropped == 12
        series.record(19.0, 0.0)  # an equal timestamp is allowed
        with pytest.raises(ValueError, match="nondecreasing"):
            series.record(3.0, 0.0)
        assert series.last == 0.0  # the rejected point was not stored


# -- determinism ------------------------------------------------------------


class TestTelemetryDeterminism:
    @pytest.mark.parametrize("paradigm", [Paradigm.ELASTICUTOR, Paradigm.RC])
    def test_enabled_is_bit_identical_to_disabled(self, paradigm):
        off, _ = run_once(paradigm, telemetry=False)
        on, system = run_once(paradigm, telemetry=True)
        assert sim_fingerprint(off) == sim_fingerprint(on)
        assert tuple(off.throughput_series.values) == tuple(
            on.throughput_series.values
        )
        # ... and the instrumented run actually observed something.
        assert system.telemetry.spans or system.telemetry.events

    def test_enabled_is_bit_identical_under_faults(self):
        off, _ = run_once(Paradigm.ELASTICUTOR, telemetry=False,
                          fault_spec=FAULTY_SPEC)
        on, _ = run_once(Paradigm.ELASTICUTOR, telemetry=True,
                         fault_spec=FAULTY_SPEC)
        assert sim_fingerprint(off) == sim_fingerprint(on)

    def test_same_seed_same_telemetry(self):
        _, first = run_once(Paradigm.ELASTICUTOR, telemetry=True)
        _, second = run_once(Paradigm.ELASTICUTOR, telemetry=True)

        def span_dicts(system):
            # wall_seconds on scheduler_round spans is real wall-clock
            # (Table 3), the one deliberately nondeterministic attr.
            out = []
            for span in system.telemetry.spans:
                d = span.to_dict()
                d["attrs"] = {k: v for k, v in d["attrs"].items()
                              if k != "wall_seconds"}
                out.append(d)
            return out

        assert span_dicts(first) == span_dicts(second)
        assert [e.to_dict() for e in first.telemetry.events] == [
            e.to_dict() for e in second.telemetry.events
        ]


# -- exporters --------------------------------------------------------------


class TestExportPins:
    """Byte pins of the sampled and sketched exports of a wan + faults run
    (jittered fabric, a latency spike and a crash).  Telemetry only reads
    the simulation, so a refactor of how it records must leave these
    files as they are; a change meant to move them re-pins them here.

    ``series.csv`` was re-pinned when the sampler stopped writing every
    series but ``executor_cores``: the new file is the old one's header
    plus its ``executor_cores`` rows, byte for byte."""

    PINS = {
        "series.csv":
            "c714f617c4833c6d25b8e596484ed0cb3760a6120f75629022412ac602e34650",
        "sketches.json":
            "0b9ac7707ef804a8bf81dc3b790fad150cea69e429e4911af1a745d85456994f",
    }

    def test_wan_faults_exports_are_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "run", "--paradigm", "elasticutor", "--net-profile", "wan",
            "--rate", "8000", "--duration", "20", "--warmup", "5",
            "--fault-spec",
            "latency_spike@6:node=1,factor=8,duration=3;node_crash@12:node=3",
            "--telemetry-out", str(out),
        ]) == 0
        capsys.readouterr()
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in self.PINS
        }
        assert digests == self.PINS


class TestProbeFoldTiming:
    """When a latency probe folds must not change what it exports: a run
    whose probes fold mid-run (every 4,096 batches) writes the same
    ``sketches.json`` bytes as the same run folded only when read."""

    def export(self, out):
        workload = MicroBenchmarkWorkload(
            rate=8000, num_keys=1000, skew=0.8, omega=4.0, batch_size=10, seed=7
        )
        topology = workload.build_topology(
            executors_per_operator=2, shards_per_executor=32
        )
        config = SystemConfig(
            paradigm=Paradigm.ELASTICUTOR, num_nodes=4, cores_per_node=4,
            source_instances=2, telemetry=True,
        )
        system = StreamSystem(topology, workload, config)
        system.run(duration=20.0, warmup=3.0)
        # Read the buffers before anything asks a probe (which folds it).
        probes = list(system.telemetry.probes().values())
        folded = [sum(s.count for s in p._sketches.values()) for p in probes]
        buffered = [len(p._pending) // 3 for p in probes]
        export_run(str(out), system.telemetry)
        return (out / "sketches.json").read_bytes(), folded, buffered

    def test_mid_run_folds_export_the_same_sketches(self, tmp_path, monkeypatch):
        mid_run, folded, buffered = self.export(tmp_path / "mid-run")
        assert all(folded), "every probe folds inside the run"
        assert max(buffered) < FOLD_THRESHOLD
        monkeypatch.setattr(task_module, "PENDING_LIMIT", sys.maxsize)
        at_read, folded, buffered = self.export(tmp_path / "at-read")
        assert not any(folded)
        assert min(buffered) >= FOLD_THRESHOLD  # post-warmup batches per probe
        assert at_read == mid_run


class TestExporters:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        result, system = run_once(Paradigm.ELASTICUTOR, telemetry=True)
        out = tmp_path_factory.mktemp("telemetry") / "run"
        export_run(str(out), system.telemetry, summary=result.to_dict(),
                   meta={"paradigm": result.paradigm.value})
        return result, system, str(out)

    def test_jsonl_round_trip(self, exported):
        result, system, out = exported
        artifact = load_artifact(out)
        assert artifact.meta["paradigm"] == "elasticutor"
        assert len(artifact.events) == len(system.telemetry.events)
        assert len(artifact.spans) == len(system.telemetry.spans)
        live = [s.to_dict() for s in sorted(
            system.telemetry.spans, key=lambda s: (s.start, s.span_id)
        )]
        loaded = [s.to_dict() for s in sorted(
            artifact.spans, key=lambda s: (s.start, s.span_id)
        )]
        assert live == loaded

    def test_series_csv_round_trip(self, exported):
        _, system, out = exported
        artifact = load_artifact(out)
        live_rows = []
        for series in system.telemetry.registry.all_series():
            for time, value in series.to_rows():
                live_rows.append((series.name, series.label_text(), time, value))
        assert artifact.series_rows == live_rows  # exact float round-trip

    def test_breakdown_from_artifact_matches_in_process(self, exported):
        _, system, out = exported
        artifact = load_artifact(out)
        for inter_node in (False, True):
            assert reassignment_breakdown(artifact, inter_node) == (
                system.reassignment_stats.mean_breakdown(inter_node)
            )

    def test_summary_json_matches_result(self, exported):
        result, _, out = exported
        artifact = load_artifact(out)
        assert artifact.summary == json.loads(
            json.dumps(result.to_dict())
        )

    def test_report_renders(self, exported):
        _, _, out = exported
        text = render_report(out)
        assert "run report" in text
        assert "shard reassignment latency breakdown" in text
        d = report_dict(out)
        assert d["counts"]["spans"] > 0
        assert set(d["reassignment"]) == {"intra_node", "inter_node"}

    def test_sampler_records_one_cores_series_per_executor(self, exported):
        _, system, _ = exported
        executors = [
            executor.name
            for group in system.executors_by_operator.values()
            for executor in group
        ]
        series = system.telemetry.registry.all_series()
        assert {s.name for s in series} == {"executor_cores"}
        assert sorted(s.label_text() for s in series) == sorted(
            f"executor={name}" for name in executors
        )

    def test_core_timeline_reads_back_from_the_artifact(self, exported):
        _, system, out = exported
        artifact = load_artifact(out)
        live = {
            dict(s.labels)["executor"]: list(s.values)
            for s in system.telemetry.registry.all_series()
        }
        timeline = report_dict(artifact)["core_timeline"]
        assert sorted(timeline) == sorted(live)
        (section,) = [
            block for block in render_report(artifact).split("\n\n")
            if block.startswith("per-executor core allocation timeline")
        ]
        rendered = {
            line.split()[0]: line.split()
            for line in section.splitlines()[4:]
        }
        assert sorted(rendered) == sorted(live)
        for executor, values in live.items():
            mean = sum(values) / len(values)
            assert timeline[executor] == {
                "samples": len(values), "mean": mean, "max": max(values),
            }
            assert rendered[executor] == [
                executor, str(len(values)), f"{mean:.2f}",
                f"{max(values):.2f}", sparkline(values),
            ]


@pytest.mark.parametrize("width", [1, 7, 40])
def test_sparkline_never_overruns_its_width(width):
    for n in range(1, 3 * width + 1):
        line = sparkline([float(i % 5) for i in range(n)], width=width)
        assert len(line) <= width
        if n <= width:
            assert len(line) == n


# -- span semantics under fault injection -----------------------------------


class TestSpansUnderFaults:
    @pytest.fixture(scope="class")
    def faulty(self):
        result, system = run_once(
            Paradigm.ELASTICUTOR, telemetry=True, fault_spec=FAULTY_SPEC
        )
        return result, system

    def test_spans_are_well_formed(self, faulty):
        _, system = faulty
        for span in system.telemetry.spans:
            assert span.closed
            assert span.end >= span.start
            # Marks are nondecreasing and inside the span.
            times = [t for _, t in span.marks]
            assert times == sorted(times)
            for t in times:
                assert span.start <= t <= span.end

    def test_recovery_spans_nest_restarts(self, faulty):
        _, system = faulty
        recoveries = system.telemetry.spans_named("recovery")
        assert recoveries, "the injected faults must produce recovery spans"
        ids = {s.span_id for s in system.telemetry.spans}
        for child in system.telemetry.spans:
            if child.parent_id is not None:
                assert child.parent_id in ids
                parent = next(
                    s for s in system.telemetry.spans
                    if s.span_id == child.parent_id
                )
                assert parent.start <= child.start
                assert child.end <= parent.end

    def test_recovery_phases_ordered(self, faulty):
        _, system = faulty
        for span in system.telemetry.spans_named("recovery"):
            if span.attrs.get("status") != "ok":
                continue
            labels = [label for label, _ in span.marks]
            expected = [m for m in ("destroyed", "detected", "repaired")
                        if m in labels]
            assert expected == ["destroyed", "detected", "repaired"]

    def test_fault_events_match_schedule(self, faulty):
        _, system = faulty
        faults = system.telemetry.events_of("fault")
        assert [e.attrs["fault"] for e in faults] == [
            "core_failure", "node_crash"
        ]
        assert [e.time for e in faults] == [6.0, 9.0]

    def test_reassign_phase_order(self, faulty):
        _, system = faulty
        spans = [
            s for s in system.telemetry.spans_named("reassign")
            if s.attrs.get("status") == "ok"
        ]
        assert spans
        for span in spans:
            labels = [label for label, _ in span.marks]
            assert labels == list(REASSIGN_PHASES)
        breakdown = phase_breakdown(spans)
        assert breakdown["count"] == len(spans)
        assert breakdown["total"] >= breakdown["drain"]
