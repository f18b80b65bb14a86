"""``repro diff`` and the exporters it reads: regression detection,
deterministic reports, sketch artifacts.

The diff's contract (docs/observability.md): direction-aware (latency up
is bad, throughput down is bad, everything else neutral), wall-clock
keys excluded, byte-identical markdown for identical inputs, non-zero
exit past the threshold — so CI can gate on it.
"""

import json

import pytest

from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig
from repro.cli import main
from repro.telemetry.diff import (
    DiffError,
    compare,
    diff_paths,
    direction,
    load_metrics,
    regressions,
    render_markdown,
)
from repro.telemetry.exporters import (
    RunArtifact,
    export_run,
    load_artifact,
    load_sketches,
    write_sketches,
)


def run_exported(tmp_path, name, rate=3000, seed=7):
    """One small instrumented run, exported to ``tmp_path/name``."""
    workload = MicroBenchmarkWorkload(
        rate=rate, num_keys=500, skew=0.8, omega=4.0, batch_size=20, seed=seed
    )
    topology = workload.build_topology(
        executors_per_operator=2, shards_per_executor=8
    )
    config = SystemConfig(
        paradigm=Paradigm.ELASTICUTOR, num_nodes=4, cores_per_node=2,
        source_instances=2, telemetry=True,
    )
    system = StreamSystem(topology, workload, config)
    result = system.run(duration=8, warmup=2)
    out = tmp_path / name
    export_run(out, system.telemetry, summary=result.to_dict())
    return out


class TestDirectionRules:
    def test_latency_up_is_bad(self):
        assert direction("latency.p99") == "higher-worse"
        assert direction("sketches.sink.p95") == "higher-worse"
        assert direction("recovery.tuples_lost") == "higher-worse"

    def test_throughput_down_is_bad(self):
        assert direction("throughput_tps") == "lower-worse"
        assert direction("scenarios.micro.events_per_sec") == "lower-worse"
        assert direction("processed_tuples") == "lower-worse"

    def test_everything_else_is_neutral(self):
        assert direction("scheduler_rounds") == "neutral"
        assert direction("migration_bytes") == "neutral"


class TestCompare:
    def test_regression_in_the_bad_direction_only(self):
        base = {"latency.p99": 1.0, "throughput_tps": 100.0}
        # Latency down and throughput up: both improvements, no failure.
        better = {"latency.p99": 0.5, "throughput_tps": 200.0}
        assert regressions(compare(base, better)) == []
        worse = {"latency.p99": 1.5, "throughput_tps": 50.0}
        failed = regressions(compare(base, worse))
        assert sorted(d.key for d in failed) == ["latency.p99", "throughput_tps"]

    def test_threshold_is_respected(self):
        base = {"latency.p99": 1.0}
        assert regressions(compare(base, {"latency.p99": 1.05})) == []
        assert regressions(
            compare(base, {"latency.p99": 1.05}, threshold=0.04)
        ) != []

    def test_min_abs_suppresses_noise(self):
        # A 50% relative change on a nanosecond-scale value is noise.
        base = {"latency.p99": 2e-7}
        assert regressions(compare(base, {"latency.p99": 3e-7})) == []
        assert regressions(
            compare(base, {"latency.p99": 3e-7}, min_abs=1e-9)
        ) != []

    def test_neutral_metrics_never_regress(self):
        base = {"scheduler_rounds": 2.0}
        assert regressions(compare(base, {"scheduler_rounds": 100.0})) == []

    def test_added_and_removed_metrics_never_regress(self):
        deltas = compare({"old.latency": 1.0}, {"new.latency": 9.0})
        assert regressions(deltas) == []
        by_key = {d.key: d for d in deltas}
        assert by_key["old.latency"].candidate is None
        assert by_key["new.latency"].baseline is None

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare({}, {}, threshold=0.0)


class TestLoadMetrics:
    def test_flattens_nested_json_and_drops_wall_keys(self, tmp_path):
        payload = {
            "latency": {"p50": 0.001, "p99": 0.01},
            "series": [1, 2],
            "ok": True,
            "scheduler_mean_wall_seconds": 0.5,
            "label": "ignored-not-numeric",
        }
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(payload))
        metrics = load_metrics(path)
        assert metrics["latency.p50"] == 0.001
        assert metrics["series.0"] == 1.0
        assert metrics["ok"] == 1.0
        assert "label" not in metrics
        assert not any("wall" in key for key in metrics)

    def test_artifact_dir_includes_sketch_summaries(self, tmp_path):
        out = run_exported(tmp_path, "run")
        metrics = load_metrics(out)
        sketch_keys = [k for k in metrics if k.startswith("sketches.")]
        assert any(k.endswith(".p99") for k in sketch_keys)
        assert "throughput_tps" in metrics

    def test_errors(self, tmp_path):
        with pytest.raises(DiffError, match="no such file"):
            load_metrics(tmp_path / "missing.json")
        with pytest.raises(DiffError, match="without summary.json"):
            load_metrics(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DiffError, match="not valid JSON"):
            load_metrics(bad)


class TestMarkdown:
    def test_identical_inputs_render_byte_identical_pass(self, tmp_path):
        out = run_exported(tmp_path, "run")
        deltas_a, markdown_a = diff_paths(out, out)
        deltas_b, markdown_b = diff_paths(out, out)
        assert markdown_a == markdown_b
        assert regressions(deltas_a) == []
        assert "**PASS**" in markdown_a
        assert "| metric |" not in markdown_a  # nothing changed

    def test_regression_renders_fail(self):
        deltas = compare({"latency.p99": 1.0}, {"latency.p99": 2.0})
        markdown = render_markdown(deltas, "a", "b")
        assert "**FAIL**" in markdown
        assert "REGRESSION" in markdown
        assert "+100.00%" in markdown

    def test_full_lists_unchanged_metrics(self):
        deltas = compare({"x": 1.0}, {"x": 1.0})
        brief = render_markdown(deltas, "a", "b")
        assert "1 metric(s) unchanged." in brief
        full = render_markdown(deltas, "a", "b", full=True)
        assert "| `x` | 1 | 1 |" in full


class TestCli:
    def seeded_regression(self, tmp_path):
        """A baseline summary and a candidate with 30% worse p99."""
        base = {"latency": {"p99": 0.010}, "throughput_tps": 1000.0}
        worse = {"latency": {"p99": 0.013}, "throughput_tps": 1000.0}
        base_path = tmp_path / "base.json"
        bad_path = tmp_path / "bad.json"
        base_path.write_text(json.dumps(base))
        bad_path.write_text(json.dumps(worse))
        return base_path, bad_path

    def test_identical_artifacts_exit_zero(self, tmp_path, capsys):
        out = run_exported(tmp_path, "run")
        assert main(["diff", str(out), str(out)]) == 0
        assert "**PASS**" in capsys.readouterr().out

    def test_seeded_regression_exits_nonzero(self, tmp_path, capsys):
        base_path, bad_path = self.seeded_regression(tmp_path)
        assert main(["diff", str(base_path), str(bad_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_json_output_names_the_regressed_metric(self, tmp_path, capsys):
        base_path, bad_path = self.seeded_regression(tmp_path)
        code = main(["diff", str(base_path), str(bad_path), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"][0]["metric"] == "latency.p99"
        assert payload["regressions"][0]["direction"] == "higher-worse"

    def test_report_file_written(self, tmp_path, capsys):
        base_path, bad_path = self.seeded_regression(tmp_path)
        report = tmp_path / "diff.md"
        main(["diff", str(base_path), str(bad_path), "--out", str(report)])
        assert "**FAIL**" in report.read_text()

    def test_unloadable_input_exits_two(self, tmp_path, capsys):
        assert main(["diff", str(tmp_path / "nope"), str(tmp_path / "nope")]) == 2
        assert "repro diff:" in capsys.readouterr().err

    def test_threshold_flag(self, tmp_path):
        base_path, bad_path = self.seeded_regression(tmp_path)
        assert main(
            ["diff", str(base_path), str(bad_path), "--threshold", "0.5"]
        ) == 0


class TestSketchArtifacts:
    def test_write_load_round_trip(self, tmp_path):
        payload = {"sink": {"summary": {"p99": 0.01}, "count": 5}}
        path = tmp_path / "sketches.json"
        write_sketches(path, payload)
        assert load_sketches(path) == payload

    def test_exported_run_carries_sketches(self, tmp_path):
        out = run_exported(tmp_path, "run")
        artifact = load_artifact(out)
        assert isinstance(artifact, RunArtifact)
        assert artifact.sketches, "instrumented run must export sketches"
        for payload in artifact.sketches.values():
            assert payload["merged"]["kind"] == "ddsketch"
            assert payload["summary"]["count"] == payload["count"]

    def test_uninstrumented_artifact_has_no_sketches(self, tmp_path):
        out = tmp_path / "bare"
        out.mkdir()
        (out / "events.jsonl").write_text(
            json.dumps({"type": "meta", "version": 1}) + "\n"
        )
        artifact = load_artifact(out)
        assert artifact.sketches == {}
