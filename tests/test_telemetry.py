"""The telemetry layer: determinism, exporters, spans, report parity.

The two load-bearing properties (docs/observability.md):

- enabling telemetry must not change simulation results — the bus only
  *reads*, it never consumes virtual time or touches the RNG;
- an exported artifact must reproduce the in-process numbers exactly
  (the ``repro report`` path and the live benchmarks are one code path).
"""

import hashlib
import json

import pytest

from repro import FaultSpec, MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig
from repro.cli import main
from repro.sim import Environment
from repro.telemetry import NULL_BUS, NULL_SPAN, EventBus, MetricRegistry, RingSeries
from repro.telemetry.exporters import export_run, load_artifact
from repro.telemetry.registry import GaugeError, record_row
from repro.telemetry.report import (
    REASSIGN_PHASES,
    phase_breakdown,
    reassignment_breakdown,
    render_report,
    report_dict,
)

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

    def test_gauge_sampling(self):
        registry = MetricRegistry()
        state = {"v": 1.0}
        registry.register_gauge("g", lambda: state["v"], executor="e0")
        registry.sample(0.0)
        state["v"] = 2.0
        registry.sample(1.0)
        (series,) = registry.all_series()
        assert series.to_rows() == [(0.0, 1.0), (1.0, 2.0)]
        assert "executor=e0" in series.label_text()

    def test_failing_gauge_raises_naming_it(self):
        registry = MetricRegistry()
        registry.register_gauge("ok", lambda: 1.0)
        registry.register_gauge("bad", lambda: 1 / 0, executor="e0")
        with pytest.raises(GaugeError, match=r"bad\{executor=e0\}.*ZeroDivisionError"):
            registry.sample(0.0)

    def test_record_row_matches_record(self):
        by_point = [RingSeries("a", capacity=8), RingSeries("b", capacity=8)]
        by_row = [RingSeries("a", capacity=8), RingSeries("b", capacity=8)]
        for i in range(20):
            for series, value in zip(by_point, (i, -i)):
                series.record(float(i), float(value))
            record_row(by_row, float(i), (float(i), float(-i)))
        for point, row in zip(by_point, by_row):
            assert row.to_rows() == point.to_rows()
            assert row.dropped == point.dropped
        with pytest.raises(ValueError, match="nondecreasing"):
            record_row(by_row, 3.0, (0.0, 0.0))


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
    files as they are; a change meant to move them re-pins them here."""

    PINS = {
        "series.csv":
            "031c4c8e4ad27e4864b2c19cb7a7cf352d87854ebcb68b4608b262b063ca5091",
        "sketches.json":
            "0b9ac7707ef804a8bf81dc3b790fad150cea69e429e4911af1a745d85456994f",
        "metrics.prom":
            "a320f7ff8f412821ea809094385efc9860cb22095bd372b2f69d3c385e5dafc2",
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
