"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main

SMOKE_SPEC = str(pathlib.Path(__file__).parents[1] / "benchmarks" / "specs" / "smoke.json")


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.paradigm == "elasticutor"
        assert args.workload == "micro"
        assert args.rate == 17_000.0

    def test_compare_args(self):
        args = build_parser().parse_args(
            ["compare", "--workload", "sse", "--rate", "9000", "--nodes", "4"]
        )
        assert args.workload == "sse"
        assert args.rate == 9000.0
        assert args.nodes == 4

    def test_scale_out_args(self):
        args = build_parser().parse_args(
            ["scale-out", "--cores", "1", "4", "--cost-ms", "0.5"]
        )
        assert args.cores == [1, 4]
        assert args.cost_ms == 0.5

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_unknown_paradigm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--paradigm", "magic"])


class TestExecution:
    def test_run_micro(self, capsys):
        code = main([
            "run", "--paradigm", "elasticutor", "--rate", "3000",
            "--keys", "500", "--nodes", "4", "--cores-per-node", "2",
            "--sources", "2", "--executors", "2", "--shards", "8",
            "--duration", "8", "--warmup", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "elasticutor" in out

    def test_run_rc_alias(self, capsys):
        code = main([
            "run", "--paradigm", "rc", "--rate", "2000",
            "--keys", "500", "--nodes", "4", "--cores-per-node", "2",
            "--sources", "2", "--executors", "2", "--shards", "8",
            "--duration", "6", "--warmup", "2",
        ])
        assert code == 0
        assert "resource-centric" in capsys.readouterr().out

    def test_scale_out(self, capsys):
        code = main([
            "scale-out", "--cores", "1", "2", "--duration", "4",
            "--warmup", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "efficiency" in out

    def test_compare(self, capsys):
        code = main([
            "compare", "--rate", "1500", "--keys", "300", "--nodes", "4",
            "--cores-per-node", "2", "--sources", "2", "--executors", "2",
            "--shards", "8", "--duration", "6", "--warmup", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("static", "resource-centric", "elasticutor", "naive-ec"):
            assert name in out

    SMALL_CLUSTER = [
        "--nodes", "1", "--cores-per-node", "4", "--sources", "1",
        "--executors", "4", "--duration", "2", "--warmup", "1",
    ]

    @pytest.mark.parametrize("argv, message", [
        (["run", *SMALL_CLUSTER], "cannot place 4 executors: only 3 free cores"),
        (["compare", *SMALL_CLUSTER], "cannot place 4 executors: only 3 free cores"),
        (["faults", *SMALL_CLUSTER], "cannot place 4 executors: only 3 free cores"),
        # The documented SSE topology (8 transactor + 11x2 analytics
        # executors) on the default 8 x 4 cluster, 4 cores held by sources.
        (["run", "--workload", "sse"], "cannot place 30 executors: only 28 free cores"),
        # Flag values no system can be built from fail before anything runs.
        (["run", "--warmup", "30", "--duration", "10", "--json"],
         "warmup must lie in [0, duration), got 30.0"),
        (["run", "--rate", "-5"], "rate must be positive, got -5.0"),
        (["run", "--keys", "0"], "num_keys must be >= 1, got 0"),
        (["run", "--sources", "0"], "source_instances must be >= 1, got 0"),
        # More sources than round-robin placement fits, before any allocation.
        (["run", "--nodes", "1", "--sources", "8"],
         "source_instances=8 does not fit: round-robin puts more sources on "
         "node 0 than its 4 cores"),
        (["run", "--executors", "0"], "executors_per_operator must be >= 1, got 0"),
        (["run", "--net-profile", "bogus"], "unknown network profile 'bogus'"),
        (["run", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["run", "--latency-target-ms", "nan"], "latency_target must be a finite number"),
        (["run", "--detection-delay", "nan"], "detection_delay must be a finite number"),
        (["scale-out", "--cores", "0"], "cores must be >= 1, got 0"),
        (["scale-out", "--omega", "-1"], "omega must be >= 0, got -1.0"),
        (["scale-out", "--cost-ms", "nan"], "cost_per_tuple must be a finite number"),
        (["scale-out", "--warmup", "5", "--duration", "2"],
         "warmup must lie in [0, duration), got 5.0"),
        (["scale-out", "--tuple-bytes", "-5"], "tuple_bytes must be >= 0, got -5"),
        (["sweep", SMOKE_SPEC, "--timeout", "nan"], "timeout must be a finite number"),
        (["sweep", SMOKE_SPEC, "--retries", "-1"], "retries must be >= 0, got -1"),
        (["sweep", SMOKE_SPEC, "--workers", "-1"], "workers must be >= 0, got -1"),
    ], ids=[
        "run", "compare", "faults", "sse-default", "warmup-past-duration",
        "negative-rate", "no-keys", "no-sources", "too-many-sources", "no-executors",
        "unknown-net-profile", "negative-seed", "nan-latency-target",
        "nan-detection-delay", "scale-out-no-cores", "scale-out-negative-omega",
        "scale-out-nan-cost", "scale-out-warmup-past-duration",
        "scale-out-negative-tuple-bytes", "sweep-nan-timeout",
        "sweep-negative-retries", "sweep-negative-workers",
    ])
    def test_malformed_flags_are_a_usage_error(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"repro: error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_report_without_an_export_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such"
        assert main(["report", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro: error: no events.jsonl under {missing}\n"
        assert captured.out == ""

    def test_skew_reaches_the_sse_workload(self, monkeypatch):
        from repro.runtime import StreamSystem

        class Built(Exception):
            pass

        def stop_at_run(system, duration, warmup=None):
            raise Built(system)

        monkeypatch.setattr(StreamSystem, "run", stop_at_run)
        with pytest.raises(Built) as built:
            main(["run", "--workload", "sse", "--nodes", "16", "--skew", "0.5"])
        popularity = built.value.args[0].workload.popularity
        # Zipf popularity: rank 1 over rank 2 is 2 ** skew.
        assert popularity[0] / popularity[1] == pytest.approx(2 ** 0.5)


class TestSweepCommand:
    @staticmethod
    def spec_file(tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "cli-demo",
            "base": {
                "workload": "micro", "rate": 800, "num_keys": 100,
                "duration": 3, "warmup": 1, "num_nodes": 4,
                "cores_per_node": 2, "source_instances": 2,
                "executors_per_operator": 2, "shards_per_executor": 4,
                "batch_size": 5,
            },
            "grid": {"paradigm": ["static", "elasticutor"]},
        }))
        return path

    def test_sweep_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "spec.json"])
        assert args.spec == "spec.json"
        assert args.workers == 0  # auto
        assert args.retries == 1
        assert args.timeout is None
        assert not args.retry_failed
        assert not args.dry_run

    def test_malformed_spec_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "bad", "grid": {"rate": 5}}')
        assert main(["sweep", str(path), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert "repro: error: grid axis 'rate' must be a list, got 5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("nested, path", [
        ({"workload_args": {"bogus": 1}}, "workload_args.bogus"),
        ({"topology_args": {"shards_per_executor": 8}}, "topology_args.shards_per_executor"),
    ], ids=["workload-args", "topology-args"])
    def test_unknown_nested_key_exits_2_before_any_trial(self, tmp_path, capsys, nested, path):
        import json

        spec = json.loads(self.spec_file(tmp_path).read_text())
        spec["trials"] = [nested]
        bad = tmp_path / "nested.json"
        bad.write_text(json.dumps(spec))
        out_dir = tmp_path / "out"
        assert main(["sweep", str(bad), "--workers", "1", "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert f"repro: error: {path}" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("system_args, message", [
        ({"fault_spec": {"events": []}}, "system_args.fault_spec: fault_spec must be"),
        ({"fault_spec": 5}, "system_args.fault_spec: fault_spec must be"),
        ({"static_weights": 5}, "system_args.static_weights: static_weights must map"),
    ], ids=["fault-spec-object", "fault-spec-number", "static-weights-number"])
    def test_bad_system_args_value_exits_2_before_any_trial(
        self, tmp_path, capsys, system_args, message
    ):
        import json

        spec = json.loads(self.spec_file(tmp_path).read_text())
        spec["trials"] = [{"system_args": system_args}]
        bad = tmp_path / "system.json"
        bad.write_text(json.dumps(spec))
        out_dir = tmp_path / "out"
        assert main(["sweep", str(bad), "--workers", "1", "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert f"repro: error: {message}" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_sweep_dry_run(self, tmp_path, capsys):
        code = main(["sweep", str(self.spec_file(tmp_path)), "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 trials" in out
        assert '"paradigm": "static"' in out

    def test_sweep_runs_and_resumes_from_cache(self, tmp_path, capsys):
        import json

        spec = self.spec_file(tmp_path)
        out_dir = tmp_path / "out"
        argv = ["sweep", str(spec), "--workers", "1",
                "--out", str(out_dir), "--json"]

        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["statuses"] == {"ok": 2, "failed": 0, "timeout": 0}
        assert (first["executed"], first["cached"]) == (2, 0)
        results = (out_dir / "results.jsonl").read_bytes()
        assert len(results.splitlines()) == 2

        # Second invocation: pure cache replay, identical artifact.
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert (second["executed"], second["cached"]) == (0, 2)
        assert (out_dir / "results.jsonl").read_bytes() == results

    def test_sweep_reports_failures_with_nonzero_exit(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "base": {
                "workload": "micro", "rate": 800, "num_keys": 100,
                "duration": 3, "warmup": 1, "num_nodes": 4,
                "cores_per_node": 2, "source_instances": 2,
                "executors_per_operator": 50, "shards_per_executor": 4,
                "batch_size": 5,
            },
        }))
        code = main(["sweep", str(path), "--workers", "1",
                     "--out", str(tmp_path / "out"), "--json"])
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["statuses"]["failed"] == 1
