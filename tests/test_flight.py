"""Flight recorder: bounded ring semantics and the post-mortem dump path.

The recorder's contract (docs/observability.md): on a healthy run it is
a fixed-size ring of the most recent telemetry records costing one deque
append each; when anything escapes the simulation loop the tail of the
run survives as ``postmortem.jsonl`` at a deterministic path.
"""

import json

import pytest

from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig
from repro.sim import Environment
from repro.sim.process import ProcessCrash
from repro.telemetry.events import EventBus, TelemetryEvent
from repro.telemetry.flight import DUMP_FILE, FlightRecorder, load_dump


def tick(i, kind="tick"):
    """A bus event as the recorder receives it."""
    return TelemetryEvent(time=float(i), kind=kind, source="test", attrs={"i": i})


def small_system(telemetry=True):
    workload = MicroBenchmarkWorkload(
        rate=3000, num_keys=500, skew=0.8, omega=4.0, batch_size=20, seed=7
    )
    topology = workload.build_topology(
        executors_per_operator=2, shards_per_executor=8
    )
    config = SystemConfig(
        paradigm=Paradigm.ELASTICUTOR, num_nodes=4, cores_per_node=2,
        source_instances=2, telemetry=telemetry,
    )
    return StreamSystem(topology, workload, config)


class TestRing:
    def test_capacity_bound_and_dropped_count(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.on_record(tick(i))
        assert len(recorder) == 4
        assert recorder.dropped == 6
        kept = [record["attrs"]["i"] for record in recorder.records()]
        assert kept == [6, 7, 8, 9]  # newest survive, arrival order

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_bus_subscription_sees_events_and_spans(self):
        env = Environment()
        bus = EventBus(env)
        recorder = FlightRecorder(capacity=16)
        bus.subscribe(recorder.on_record)
        bus.emit("rebalance", operator="calc")
        span = bus.begin_span("migration", shard=3)
        span.finish()
        records = recorder.records()
        assert [r["type"] for r in records] == ["event", "span"]
        assert records[0]["kind"] == "rebalance"
        assert records[1]["name"] == "migration"

    def test_serialization_is_deferred_to_dump(self, tmp_path):
        """The ring stores record objects; a span mutated after arrival
        dumps its final state — what a post-mortem wants to see."""
        env = Environment()
        bus = EventBus(env)
        recorder = FlightRecorder(capacity=8)
        bus.subscribe(recorder.on_record)
        span = bus.begin_span("drain", shard=1)
        span.finish()
        span.set(late_annotation=True)
        path = recorder.dump(tmp_path, reason="test")
        _, records = load_dump(path)
        assert records[0]["attrs"]["late_annotation"] is True


class TestDump:
    def test_dump_and_load_round_trip(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        for i in range(12):
            recorder.on_record(tick(i))
        path = recorder.dump(
            tmp_path, reason="unit test", meta={"paradigm": "elasticutor"}
        )
        assert path == tmp_path / DUMP_FILE
        assert recorder.dumped == [path]
        header, records = load_dump(path)
        assert header["type"] == "flight"
        assert header["reason"] == "unit test"
        assert header["capacity"] == 8
        assert header["retained"] == 8
        assert header["dropped"] == 4
        assert header["meta"] == {"paradigm": "elasticutor"}
        assert [r["attrs"]["i"] for r in records] == list(range(4, 12))

    def test_dump_is_jsonl(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        recorder.on_record(tick(1))
        path = recorder.dump(tmp_path, reason="x")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_repeated_dumps_overwrite(self, tmp_path):
        """DET001 discipline: fixed filename, so repeated crashes of the
        same run overwrite rather than accumulate."""
        recorder = FlightRecorder(capacity=4)
        recorder.on_record(tick(1, "first"))
        first = recorder.dump(tmp_path, reason="one")
        recorder.on_record(tick(2, "second"))
        second = recorder.dump(tmp_path, reason="two")
        assert first == second
        header, records = load_dump(second)
        assert header["reason"] == "two"
        assert len(records) == 2


class TestDumpOnFault:
    def test_exception_escaping_the_sim_loop_dumps_the_ring(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        system = small_system(telemetry=True)

        def bomb():
            yield system.env.timeout(3.0)
            raise RuntimeError("injected mid-run failure")

        system.env.process(bomb())
        # The kernel wraps the process's exception in ProcessCrash; the
        # original message rides along in the reason string.
        with pytest.raises(ProcessCrash, match="injected mid-run failure"):
            system.run(duration=8, warmup=2)
        path = tmp_path / DUMP_FILE
        assert path.exists()
        header, records = load_dump(path)
        assert "RuntimeError" in header["reason"]
        assert "injected mid-run failure" in header["reason"]
        assert header["meta"]["paradigm"] == "elasticutor"
        assert header["meta"]["virtual_time"] == pytest.approx(3.0)
        assert records, "the ring tail must survive the crash"

    def test_no_dump_when_telemetry_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        system = small_system(telemetry=False)

        def bomb():
            yield system.env.timeout(3.0)
            raise RuntimeError("boom")

        system.env.process(bomb())
        with pytest.raises(ProcessCrash):
            system.run(duration=8, warmup=2)
        assert not (tmp_path / DUMP_FILE).exists()

    def test_healthy_run_never_dumps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        system = small_system(telemetry=True)
        system.run(duration=8, warmup=2)
        assert not (tmp_path / DUMP_FILE).exists()
        flight = system.telemetry.flight
        assert flight is not None
        assert len(flight) > 0  # it was recording all along
