"""Tests for the ``repro lint`` invariant analyzer.

Each fixture under ``tests/fixtures/lint/`` violates exactly one rule;
the committed tree under ``src/repro/`` must be clean.  Fixtures that
exercise path-scoped rules (HOT001, the DET001 allowlist)
live under synthetic ``repro/...`` subdirectories so the package
matcher sees the suffix it keys on.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.lint import ALL_RULES, run_lint
from repro.lint.core import SUPPRESSION_RULE, ParsedModule, Suppressions, _relpath

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"
SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def lint_fixture(relative):
    return run_lint([str(FIXTURES / relative)])


def rules_of(findings):
    return {f.rule for f in findings}


class TestFixturesTripRules:
    def test_det001_fixture(self):
        findings = lint_fixture("det001_bad.py")
        assert rules_of(findings) == {"DET001"}
        # time, perf_counter, datetime.now, random x2, uuid4, urandom,
        # list(set), for-over-set: every category is represented.
        assert len(findings) == 9

    def test_det001_numpy_fixture(self):
        findings = lint_fixture("det001_numpy_bad.py")
        assert rules_of(findings) == {"DET001"}
        # Four global-state draws (random, randint, shuffle, seed) plus
        # two unseeded constructors (default_rng(), PCG64()); the seeded
        # Generator/PCG64/default_rng idiom below them stays clean.
        assert len(findings) == 6
        messages = " | ".join(f.message for f in findings)
        assert "hidden global" in messages
        assert "without a seed" in messages

    def test_det001_set_algebra_fixture(self):
        # DynamicScheduler._apply's loop over a union of two key sets.
        findings = lint_fixture("det001_set_algebra_bad.py")
        assert rules_of(findings) == {"DET001"}
        assert sorted(f.line for f in findings) == [11, 17]

    def test_det001_network_fixture(self):
        findings = lint_fixture("det001_network_bad.py")
        assert rules_of(findings) == {"DET001"}
        # One unseeded default_rng() plus one global-state draw; the
        # seeded PCG64 fabric idiom below them stays clean.
        assert len(findings) == 2

    def test_hot001_fixture(self):
        findings = lint_fixture("repro/executors/hot001_bad.py")
        assert rules_of(findings) == {"HOT001"}
        messages = [f.message for f in findings]
        assert any("declares no __slots__" in m for m in messages)
        assert any("surprise" in m for m in messages)

    def test_tel001_fixture(self):
        findings = lint_fixture("tel001_bad.py")
        assert rules_of(findings) == {"TEL001"}
        assert len(findings) == 3

    def test_tel001_probe_guard_fixture(self):
        findings = lint_fixture("repro/executors/tel001_probe_bad.py")
        assert rules_of(findings) == {"TEL001"}
        # direct attribute call, unguarded alias, wrong-condition guard;
        # the two `is not None` variants in the fixture stay clean.
        assert len(findings) == 3
        assert all("unguarded in a hot module" in f.message for f in findings)

    def test_tel001_probe_guard_is_hot_module_scoped(self, tmp_path):
        source = (
            FIXTURES / "repro" / "executors" / "tel001_probe_bad.py"
        ).read_text()
        cold = tmp_path / "cold_module.py"
        cold.write_text(source)
        assert run_lint([str(cold)]) == []

    def test_sup002_fixture(self):
        findings = lint_fixture("sup002_stale.py")
        assert rules_of(findings) == {"SUP002"}
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "stale suppression" in messages
        assert "unknown rule" in messages

    def test_sup002_audit_skipped_under_select(self):
        # Under --select, unselected rules cannot fire, so the staleness
        # audit would be pure noise.
        det = next(r for r in ALL_RULES if r.name == "DET001")
        findings = run_lint([str(FIXTURES / "sup002_stale.py")], rules=[det()])
        assert findings == []

    def test_findings_carry_file_and_line(self):
        findings = lint_fixture("det001_bad.py")
        for finding in findings:
            assert finding.path.endswith("det001_bad.py")
            assert finding.line > 0
            rendered = finding.format()
            assert f":{finding.line}:" in rendered
            assert finding.rule in rendered


class TestSuppressions:
    def test_justified_suppression_silences_rule(self):
        assert lint_fixture("suppressed_ok.py") == []

    def test_unjustified_suppression_is_a_finding(self):
        findings = lint_fixture("suppressed_missing.py")
        assert rules_of(findings) == {"DET001", SUPPRESSION_RULE}

    def test_unjustified_suppression_does_not_silence(self):
        findings = lint_fixture("suppressed_missing.py")
        det = [f for f in findings if f.rule == "DET001"]
        assert len(det) == 1

    def test_unjustified_marker_registers_nothing(self):
        sup = Suppressions(["x = 1  # repro: allow[DET001]"])
        assert not sup.allows("DET001", 1)
        assert sup.unjustified == [(1, "DET001")]

    def test_suppression_is_same_line_only(self):
        sup = Suppressions(
            [
                "# repro: allow[DET001]: above the line",
                "import time",
                "t = time.time()",
            ]
        )
        assert sup.allows("DET001", 1)
        assert not sup.allows("DET001", 3)


class TestAllowlist:
    def test_sweep_runner_wall_clock_allowed(self):
        assert lint_fixture("repro/sweep/runner.py") == []

    def test_same_code_outside_allowlist_flagged(self, tmp_path):
        source = (FIXTURES / "repro" / "sweep" / "runner.py").read_text()
        other = tmp_path / "elsewhere.py"
        other.write_text(source)
        findings = run_lint([str(other)])
        assert rules_of(findings) == {"DET001"}


class TestFramework:
    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        findings = run_lint([str(bad)])
        assert rules_of(findings) == {"PARSE"}

    def test_directory_collection_is_sorted_and_deduped(self):
        findings = run_lint([str(FIXTURES), str(FIXTURES / "det001_bad.py")])
        paths = [f.path for f in findings]
        assert paths == sorted(paths)
        det_paths = {f.path for f in findings if "det001_bad" in f.path}
        assert len(det_paths) == 1

    def test_select_restricts_rules(self):
        hot = [r for r in ALL_RULES if r.name == "HOT001"]
        findings = run_lint([str(FIXTURES)], rules=[factory() for factory in hot])
        assert rules_of(findings) <= {"HOT001", SUPPRESSION_RULE, "PARSE"}
        assert "HOT001" in rules_of(findings)

    def test_in_package_matches_directory_suffix(self):
        path = FIXTURES / "repro" / "executors" / "hot001_bad.py"
        module = ParsedModule(path, _relpath(path))
        assert module.in_package("repro/executors/")
        assert not module.in_package("repro/state/")
        assert not module.in_package("repro/sweep/runner.py")


class TestCli:
    def test_lint_fixture_exits_nonzero(self, capsys):
        assert main(["lint", str(FIXTURES / "det001_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "det001_bad.py:" in out

    def test_lint_clean_file_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "suppressed_ok.py")]) == 0

    def test_lint_json_output(self, capsys):
        assert main(["lint", "--json", str(FIXTURES / "tel001_bad.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert all(f["rule"] == "TEL001" for f in payload)
        assert all({"rule", "path", "line", "message"} <= set(f) for f in payload)

    def test_lint_select_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--select", "NOPE", str(FIXTURES)]) == 2

    @pytest.mark.parametrize("missing", ["no/such/dir", "nosuch.py"])
    def test_lint_missing_path_is_a_usage_error(self, missing, capsys):
        assert main(["lint", str(FIXTURES / "det001_bad.py"), missing]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro: error: no such file or directory: {missing}\n"
        )
        assert captured.out == ""

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for factory in ALL_RULES:
            assert factory.name in out


class TestChangedScoping:
    """Lint has no changed-file scoping: every run reports the whole tree."""

    def test_no_changed_set_reports_all(self, tmp_path):
        (tmp_path / "dirty.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n"
        )
        (tmp_path / "user.py").write_text(
            "from dirty import now\n\n\ndef caller():\n    return now()\n"
        )
        (tmp_path / "bystander.py").write_text("VALUE = 1\n")
        assert {f.rule for f in run_lint([str(tmp_path)])} == {"DET001"}


class TestTreeIsClean:
    def test_src_repro_has_zero_findings(self):
        findings = run_lint([str(SRC)])
        rendered = "\n".join(f.format() for f in findings)
        assert findings == [], f"repro lint found:\n{rendered}"
