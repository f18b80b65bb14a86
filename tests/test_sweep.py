"""Tests for the parallel sweep orchestrator (repro.sweep).

Covers the spec layer (content-hash trial identity, grid expansion), the
on-disk cache, every failure path of the runner (raising trials,
timeouts, dead workers, retry budgets), and the headline guarantee:
parallel execution produces byte-identical ``results.jsonl`` to serial
execution, and a resumed sweep re-executes nothing.
"""

import json
import os
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sweep import (
    ResultCache,
    SweepRunner,
    SweepSpec,
    TrialConfig,
    code_fingerprint,
)
from repro.sweep.trial import TELEMETRY_KEY


# ---------------------------------------------------------------------------
# Module-level trial functions: picklable for process-pool workers.  The
# trials driving them are ordinary TrialConfigs whose ``workload_args``
# carry the behaviour knobs.
# ---------------------------------------------------------------------------

def echo_fn(params):
    """Deterministic function of the trial parameters."""
    return {"seed": params["seed"], "rate": params["rate"]}


def flaky_fn(params):
    """Crash when asked; count executions via an on-disk counter."""
    knobs = params["workload_args"]
    counter = knobs.get("counter")
    runs = 0
    if counter:
        runs = int(open(counter).read()) if os.path.exists(counter) else 0
        runs += 1
        with open(counter, "w") as handle:
            handle.write(str(runs))
    fail_first = int(knobs.get("fail_first", -1))
    if knobs.get("crash") or runs <= fail_first:
        raise RuntimeError(f"boom (run {runs})")
    if knobs.get("hang"):
        time.sleep(60.0)
    return {"seed": params["seed"], "runs": runs}


def die_fn(params):
    """Kill the worker process outright (bypasses exception handling)."""
    if params["workload_args"].get("die"):
        os._exit(13)
    return {"seed": params["seed"]}


def keys_fn(params):
    """Report which keys the runner dispatched."""
    return {"keys": sorted(params)}


def sketch_fn(params):
    """Ship a deterministic latency sketch home, keyed off the seed."""
    from repro.telemetry.sketch import QuantileSketch

    if params["workload_args"].get("crash"):
        raise RuntimeError("boom")
    sketch = QuantileSketch(relative_accuracy=0.01)
    seed = params["seed"]
    for i in range(100):
        sketch.add(0.001 * (seed * 100 + i + 1))
    return {"seed": seed, "latency_sketch": sketch.to_dict()}


def tiny(seed=1, **knobs):
    """A trial whose identity varies with ``seed`` and the knobs."""
    return TrialConfig(
        rate=100.0, duration=1.0, warmup=0.0, seed=seed, workload_args=knobs
    )


def micro(paradigm="elasticutor", omega=2.0, seed=42, **overrides):
    """A real micro-benchmark trial small enough to simulate in ~30 ms."""
    params = dict(
        workload="micro", paradigm=paradigm, rate=1500.0, omega=omega,
        seed=seed, duration=5.0, warmup=2.0, num_nodes=4, cores_per_node=2,
        source_instances=2, executors_per_operator=2, shards_per_executor=8,
        num_keys=200, skew=0.8, batch_size=5,
    )
    params.update(overrides)
    return TrialConfig(**params)


# ---------------------------------------------------------------------------
# Spec layer
# ---------------------------------------------------------------------------

class TestTrialConfig:
    def test_trial_id_is_stable(self):
        assert tiny(seed=3).trial_id == tiny(seed=3).trial_id
        assert len(tiny().trial_id) == 16
        int(tiny().trial_id, 16)  # hex

    def test_trial_id_tracks_parameters(self):
        ids = {tiny(seed=s).trial_id for s in range(10)}
        assert len(ids) == 10
        assert tiny(knob=1).trial_id != tiny(knob=2).trial_id

    def test_paradigm_aliases_share_identity(self):
        assert (
            TrialConfig(paradigm="rc").trial_id
            == TrialConfig(paradigm="resource-centric").trial_id
        )
        assert TrialConfig(paradigm="naive").paradigm == "naive-ec"

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown trial parameters"):
            TrialConfig.from_dict({"workload": "micro", "warp_factor": 9})

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(rate=0.0)
        with pytest.raises(ValueError):
            TrialConfig(duration=10.0, warmup=10.0)
        with pytest.raises(ValueError):
            TrialConfig(paradigm="magic")
        with pytest.raises(ValueError):
            TrialConfig(workload="wordcount")
        with pytest.raises(ValueError):
            TrialConfig(timeout_seconds=0.0)

    def test_system_args_must_name_a_config_field(self):
        # A removed SystemConfig field fails at load time, naming the
        # key, instead of as a TypeError inside every worker.
        with pytest.raises(ValueError, match="'forecast_alpha'"):
            TrialConfig(system_args={"forecast_alpha": 0.8})

    def test_system_args_cannot_override_trial_fields(self):
        with pytest.raises(ValueError, match="'paradigm'"):
            TrialConfig(system_args={"paradigm": "static"})

    def test_system_args_accepts_config_fields(self):
        # The Table 3 benchmark's weighted static deployment.
        weights = {"static_weights": {"transactor": 10.0}}
        assert TrialConfig(system_args=weights).system_args == weights


class TestSweepSpec:
    def test_grid_expansion_order(self):
        spec = SweepSpec.grid(
            "g",
            base={"rate": 100.0, "duration": 1.0, "warmup": 0.0},
            axes={"paradigm": ["static", "elasticutor"], "seed": [1, 2, 3]},
        )
        cells = [(t.paradigm, t.seed) for t in spec]
        # Last axis varies fastest; order is deterministic.
        assert cells == [
            ("static", 1), ("static", 2), ("static", 3),
            ("elasticutor", 1), ("elasticutor", 2), ("elasticutor", 3),
        ]

    def test_grid_dotted_axes_reach_nested_dicts(self):
        spec = SweepSpec.grid(
            "g",
            base={"rate": 100.0, "duration": 1.0, "warmup": 0.0},
            axes={"workload_args.tick": [1, 2]},
        )
        assert [t.workload_args for t in spec] == [{"tick": 1}, {"tick": 2}]

    def test_explicit_trials_merge_over_base(self):
        spec = SweepSpec.grid(
            "g",
            base={"rate": 100.0, "duration": 1.0, "warmup": 0.0,
                  "workload_args": {"a": 1}},
            trials=[{"workload_args": {"b": 2}}, {"seed": 7}],
        )
        assert spec.trials[0].workload_args == {"a": 1, "b": 2}
        assert spec.trials[1].seed == 7

    def test_duplicate_trials_rejected(self):
        with pytest.raises(ValueError, match="duplicate trial"):
            SweepSpec("dup", [tiny(seed=1), tiny(seed=1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec("empty", [])

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "demo",
            "base": {"rate": 100.0, "duration": 1.0, "warmup": 0.0},
            "grid": {"seed": [1, 2]},
            "trials": [{"seed": 9}],
        }))
        spec = SweepSpec.from_file(path)
        assert spec.name == "demo"
        assert [t.seed for t in spec] == [1, 2, 9]
        with pytest.raises(ValueError, match="unknown spec keys"):
            SweepSpec.from_dict({"name": "x", "grdi": {}})

    @pytest.mark.parametrize("bad, names", [
        ({"name": "x", "base": 3}, "base must be an object, got 3"),
        ({"name": "x", "grid": []}, "grid must be an object, got []"),
        ({"name": "x", "grid": {"rate": 5}}, "grid axis 'rate' must be a list, got 5"),
        ({"name": "x", "grid": {"rate": "x"}}, "grid axis 'rate' must be a list, got 'x'"),
        ({"name": "x", "grid": {"rate": ["x"]}}, "rate must be a finite number, got 'x'"),
        ({"name": 5}, "name must be a string, got 5"),
        ({"name": "x", "trials": [3]}, "trials[0] must be an object, got 3"),
        ({"name": "x", "base": {"paradigm": []}}, "paradigm must be a string, got []"),
        ({"name": "x", "base": {"rate": float("nan")}}, "rate must be a finite number"),
        ({"name": "x", "base": {"num_nodes": 2.5}}, "num_nodes must be an integer, got 2.5"),
        ({"name": "x", "base": {"seed": True}}, "seed must be an integer, got True"),
        ({"name": "x", "base": {"system_args": []}}, "system_args must be an object"),
        ([], "a sweep spec must be an object, got []"),
    ])
    def test_malformed_spec_names_the_key(self, bad, names):
        with pytest.raises(ValueError) as exc_info:
            SweepSpec.from_dict(bad)
        assert names in str(exc_info.value)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.text(alphabet='{}[]":, 0123456789.-eE' "namebsgridtrialsewopx"),
            st.dictionaries(
                st.sampled_from(["name", "base", "grid", "trials", "bogus"]),
                st.recursive(
                    st.none() | st.booleans() | st.integers(-3, 5)
                    | st.floats() | st.sampled_from(["", "demo", "sse", "static"]),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(
                        st.sampled_from(["rate", "seed", "paradigm", "workload",
                                         "num_nodes", "duration", "warmup",
                                         "workload_args", "system_args"]),
                        inner, max_size=3,
                    ),
                    max_leaves=6,
                ),
                max_size=4,
            ).map(json.dumps),
        )
    )
    @example('{"name": "x", "grid": {"rate": 5}}')
    @example('{"name": "x", "base": {"duration": 1, "warmup": 0}}')
    def test_any_text_loads_or_raises_value_error(self, text):
        try:
            spec = SweepSpec.from_dict(json.loads(text))
        except ValueError:  # json.JSONDecodeError included
            return
        # Whatever loads keeps its trials' identities through their dicts.
        assert [TrialConfig.from_dict(t.to_dict()) for t in spec] == spec.trials


# ---------------------------------------------------------------------------
# Cache layer
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f" * 16)
        record = {"trial_id": "abc", "status": "ok", "params": {},
                  "result": {"x": 1}, "error": None, "timing": {"wall": 0.5}}
        cache.put(record)
        assert cache.get("abc") == record
        assert len(cache) == 1

    def test_miss_and_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f" * 16)
        assert cache.get("missing") is None
        cache.directory.mkdir(parents=True)
        cache.path_for("bad").write_text("{not json")
        assert cache.get("bad") is None
        cache.path_for("lied").write_text('{"trial_id": "other"}')
        assert cache.get("lied") is None

    def test_fingerprint_partitions_results(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="old0" * 4)
        old.put({"trial_id": "abc", "status": "ok"})
        new = ResultCache(tmp_path, fingerprint="new0" * 4)
        assert new.get("abc") is None  # different code, no reuse

    def test_code_fingerprint_shape(self):
        fingerprint = code_fingerprint()
        assert len(fingerprint) == 16
        int(fingerprint, 16)
        assert code_fingerprint() == fingerprint  # memoized


# ---------------------------------------------------------------------------
# Runner failure paths (serial)
# ---------------------------------------------------------------------------

class TestSerialFailures:
    def test_raising_trial_is_isolated(self):
        spec = SweepSpec("s", [tiny(seed=1), tiny(seed=2, crash=True)])
        result = SweepRunner(spec, trial_fn=flaky_fn, retries=0).run()
        ok, bad = result.records
        assert ok.status == "ok" and ok.result == {"seed": 1, "runs": 0}
        assert bad.status == "failed" and bad.result is None
        assert bad.error["kind"] == "exception"
        assert bad.error["type"] == "RuntimeError"
        assert "boom" in bad.error["message"]
        assert result.status_counts() == {"ok": 1, "failed": 1, "timeout": 0}

    def test_retry_budget(self, tmp_path):
        counter = str(tmp_path / "runs")
        spec = SweepSpec("s", [tiny(counter=counter, fail_first=99)])
        result = SweepRunner(spec, trial_fn=flaky_fn, retries=2).run()
        assert result.records[0].status == "failed"
        assert open(counter).read() == "3"  # 1 attempt + 2 retries
        assert result.executed == 3 and result.retried == 2

    def test_retry_heals_transient_failure(self, tmp_path):
        counter = str(tmp_path / "runs")
        spec = SweepSpec("s", [tiny(counter=counter, fail_first=1)])
        result = SweepRunner(spec, trial_fn=flaky_fn, retries=1).run()
        assert result.records[0].status == "ok"
        assert result.records[0].result["runs"] == 2

    def test_timeout_not_retried_by_default(self, tmp_path):
        counter = str(tmp_path / "runs")
        spec = SweepSpec("s", [tiny(counter=counter, hang=True)])
        result = SweepRunner(
            spec, trial_fn=flaky_fn, timeout=0.2, retries=2
        ).run()
        record = result.records[0]
        assert record.status == "timeout"
        assert record.error["kind"] == "timeout"
        assert "0.2s wall-clock budget" in record.error["message"]
        assert open(counter).read() == "1"  # deterministic: no retry

    def test_retry_timeouts_opt_in(self, tmp_path):
        counter = str(tmp_path / "runs")
        spec = SweepSpec("s", [tiny(counter=counter, hang=True)])
        SweepRunner(
            spec, trial_fn=flaky_fn, timeout=0.2, retries=1,
            retry_timeouts=True,
        ).run()
        assert open(counter).read() == "2"

    def test_per_trial_timeout_overrides_runner_default(self):
        slow = TrialConfig(
            rate=100.0, duration=1.0, warmup=0.0, timeout_seconds=0.2,
            workload_args={"hang": True},
        )
        result = SweepRunner(
            SweepSpec("s", [slow]), trial_fn=flaky_fn, timeout=30.0
        ).run()
        assert result.records[0].status == "timeout"
        assert "0.2s" in result.records[0].error["message"]

    def test_telemetry_dir_injected_without_changing_identity(self, tmp_path):
        trial = tiny(seed=5)
        result = SweepRunner(
            SweepSpec("s", [trial]), trial_fn=keys_fn,
            telemetry_dir=tmp_path / "telemetry",
        ).run()
        assert TELEMETRY_KEY in result.records[0].result["keys"]
        # The injected key is runner policy, not trial identity.
        assert result.records[0].trial_id == trial.trial_id
        assert TELEMETRY_KEY not in result.records[0].params


class TestResume:
    def test_cache_skips_execution(self, tmp_path):
        spec = SweepSpec("s", [tiny(seed=s) for s in range(4)])
        kwargs = dict(trial_fn=flaky_fn, cache_dir=tmp_path / "cache")
        first = SweepRunner(spec, **kwargs).run()
        assert (first.executed, first.cached) == (4, 0)
        second = SweepRunner(spec, **kwargs).run()
        assert (second.executed, second.cached) == (0, 4)
        assert [r.to_json_line() for r in first.records] == [
            r.to_json_line() for r in second.records
        ]

    def test_execution_counter_proves_no_rerun(self, tmp_path):
        counter = str(tmp_path / "runs")
        spec = SweepSpec("s", [tiny(counter=counter)])
        kwargs = dict(trial_fn=flaky_fn, cache_dir=tmp_path / "cache")
        SweepRunner(spec, **kwargs).run()
        SweepRunner(spec, **kwargs).run()
        assert open(counter).read() == "1"

    def test_cached_failures_reused_unless_asked(self, tmp_path):
        counter = str(tmp_path / "runs")
        spec = SweepSpec("s", [tiny(counter=counter, fail_first=99)])
        kwargs = dict(trial_fn=flaky_fn, retries=0,
                      cache_dir=tmp_path / "cache")
        SweepRunner(spec, **kwargs).run()
        assert open(counter).read() == "1"
        # Default: the cached failure is served, nothing re-runs.
        result = SweepRunner(spec, **kwargs).run()
        assert result.cached == 1 and open(counter).read() == "1"
        # reuse_failures=False (CLI --retry-failed): it runs again.
        result = SweepRunner(spec, reuse_failures=False, **kwargs).run()
        assert result.executed == 1 and open(counter).read() == "2"

    def test_fingerprint_invalidates_cache(self, tmp_path):
        spec = SweepSpec("s", [tiny(seed=1)])
        SweepRunner(
            spec, trial_fn=echo_fn, cache_dir=tmp_path, fingerprint="a" * 16
        ).run()
        result = SweepRunner(
            spec, trial_fn=echo_fn, cache_dir=tmp_path, fingerprint="b" * 16
        ).run()
        assert result.executed == 1 and result.cached == 0


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------

class TestParallel:
    def test_mixed_outcomes(self, tmp_path):
        spec = SweepSpec("s", [
            tiny(seed=1), tiny(seed=2, crash=True), tiny(seed=3, hang=True),
            tiny(seed=4), tiny(seed=5),
        ])
        result = SweepRunner(
            spec, workers=4, trial_fn=flaky_fn, timeout=0.3, retries=0
        ).run()
        assert result.status_counts() == {"ok": 3, "failed": 1, "timeout": 1}
        # Records consolidate in spec order regardless of completion order.
        assert [r.trial_id for r in result.records] == spec.trial_ids()

    def test_dead_worker_does_not_kill_the_sweep(self):
        spec = SweepSpec("s", [
            tiny(seed=1), tiny(seed=2, die=True), tiny(seed=3), tiny(seed=4),
        ])
        result = SweepRunner(
            spec, workers=2, trial_fn=die_fn, retries=1
        ).run()
        by_id = result.by_id()
        culprit = by_id[tiny(seed=2, die=True).trial_id]
        assert culprit.status == "failed"
        assert culprit.error["kind"] == "worker-died"
        innocents = [r for r in result.records if r is not culprit]
        assert all(r.status == "ok" for r in innocents)

    def test_progress_callback(self):
        seen = []
        spec = SweepSpec("s", [tiny(seed=s) for s in range(3)])
        SweepRunner(
            spec, workers=2, trial_fn=echo_fn,
            progress=lambda done, total, record, cached: seen.append(
                (done, total, record.status, cached)
            ),
        ).run()
        assert sorted(seen) == [(1, 3, "ok", False), (2, 3, "ok", False),
                                (3, 3, "ok", False)]


class TestMergedSketch:
    def test_merges_across_trials(self):
        spec = SweepSpec("s", [tiny(seed=s) for s in (1, 2, 3)])
        result = SweepRunner(spec, trial_fn=sketch_fn).run()
        merged = result.merged_sketch("latency_sketch")
        assert merged is not None
        assert merged.count == 300
        # The merged extremes span every worker's contribution.
        assert merged.quantile(0.0) == pytest.approx(0.101, rel=0.02)
        assert merged.quantile(1.0) == pytest.approx(0.400, rel=0.02)

    def test_parallel_merge_matches_serial(self):
        spec = SweepSpec("s", [tiny(seed=s) for s in (1, 2, 3, 4)])
        serial = SweepRunner(spec, trial_fn=sketch_fn).run()
        parallel = SweepRunner(spec, workers=2, trial_fn=sketch_fn).run()
        assert (
            serial.merged_sketch("latency_sketch").to_dict()
            == parallel.merged_sketch("latency_sketch").to_dict()
        )

    def test_failed_trials_are_skipped(self):
        spec = SweepSpec("s", [tiny(seed=1), tiny(seed=2, crash=True)])
        result = SweepRunner(spec, trial_fn=sketch_fn, retries=0).run()
        merged = result.merged_sketch("latency_sketch")
        assert merged is not None
        assert merged.count == 100

    def test_missing_path_returns_none(self):
        spec = SweepSpec("s", [tiny(seed=1)])
        result = SweepRunner(spec, trial_fn=sketch_fn).run()
        assert result.merged_sketch("nope.latency") is None


# ---------------------------------------------------------------------------
# Acceptance: real simulations, serial == parallel, resume is free
# ---------------------------------------------------------------------------

def acceptance_spec():
    """12 real trials + 1 crashing + 1 timing out, as the issue demands."""
    trials = [
        micro(paradigm=p, omega=omega, seed=seed)
        for p in ("static", "resource-centric", "elasticutor")
        for omega in (0.0, 8.0)
        for seed in (1, 2)
    ]
    # 50 executors cannot be placed on 6 free cores: deterministic crash.
    trials.append(micro(executors_per_operator=50))
    # An effectively-endless simulation with a tiny wall-clock budget.
    trials.append(micro(duration=1e9, rate=30_000.0, timeout_seconds=0.4))
    return SweepSpec("acceptance", trials)


class TestAcceptance:
    def test_parallel_matches_serial_and_resume_is_free(self, tmp_path):
        spec = acceptance_spec()

        serial = SweepRunner(
            spec, workers=1, cache_dir=tmp_path / "cache_serial"
        ).run()
        serial_results, _ = serial.write(tmp_path / "serial")

        parallel = SweepRunner(
            spec, workers=4, cache_dir=tmp_path / "cache_parallel"
        ).run()
        parallel_results, _ = parallel.write(tmp_path / "parallel")

        # The sweep completes despite the injected crash and timeout.
        expected = {"ok": 12, "failed": 1, "timeout": 1}
        assert serial.status_counts() == expected
        assert parallel.status_counts() == expected
        crash = parallel.by_id()[spec.trials[12].trial_id]
        assert crash.error["kind"] == "exception"
        hang = parallel.by_id()[spec.trials[13].trial_id]
        assert hang.error["kind"] == "timeout"

        # Byte-identical artifacts, serial vs parallel.
        assert serial_results.read_bytes() == parallel_results.read_bytes()

        # Resuming re-executes nothing and reproduces the same bytes.
        resumed = SweepRunner(
            spec, workers=4, cache_dir=tmp_path / "cache_parallel"
        ).run()
        assert resumed.executed == 0
        assert resumed.cached == len(spec) == 14
        resumed_results, _ = resumed.write(tmp_path / "resumed")
        assert resumed_results.read_bytes() == parallel_results.read_bytes()

    def test_timing_side_channel(self, tmp_path):
        result = SweepRunner(SweepSpec("t", [micro()])).run()
        record = result.records[0]
        # Wall-clock scheduler cost is available in memory…
        assert record.timing["scheduler_mean_wall_seconds"] >= 0.0
        # …but never reaches the deterministic artifact.
        assert "scheduler_mean_wall_seconds" not in record.result
        assert "timing" not in json.loads(record.to_json_line())


def test_import_repro_loads_the_sweep_package_on_first_use():
    # ``repro.sweep`` brings concurrent.futures and multiprocessing; only
    # sweeps and the CLI need them, so ``import repro`` leaves it out.
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys, repro\n"
        "assert 'repro.sweep' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert {'SweepRunner', 'SweepSpec', 'TrialConfig'} <= set(repro.__all__)\n"
        "from repro import SweepRunner, SweepSpec, TrialConfig\n"
        "from repro.sweep import runner, spec\n"
        "assert SweepRunner is runner.SweepRunner\n"
        "assert (SweepSpec, TrialConfig) == (spec.SweepSpec, spec.TrialConfig)\n"
        "try:\n"
        "    repro.NoSuchName\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('missing attribute did not raise')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
