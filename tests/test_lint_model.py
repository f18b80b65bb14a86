"""Tests for the protocol model checks.

The tables in :mod:`repro.protocol` check their own shape when they are
built (termination, reachability, no wedged state), and PROTO001 ties
every declared edge to a tracker call site (dead edges).  The
checked-in tables must pass both; mutated tables must be rejected with
the offending state and the path to it, and dead edges must be named at
the table's line in ``protocol.py``.
"""

import ast
import pathlib
import shutil
import textwrap

import pytest

from repro.cli import main
from repro.lint import run_lint
from repro.lint.rules.proto001 import Proto001, table_lines
from repro.protocol import TABLES, ProtocolTable

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def fs(*states):
    return frozenset(states)


def all_edges():
    return [
        (name, src, dst)
        for name, table in sorted(TABLES.items())
        for src, dsts in sorted(table.transitions.items())
        for dst in sorted(dsts)
    ]


def lint_tree(tmp_path, walks_source=None):
    """PROTO001 findings on ``protocol.py`` plus an optional executors
    module, laid out as ``src/repro/...`` like the real tree."""
    root = tmp_path / "src" / "repro"
    (root / "executors").mkdir(parents=True)
    shutil.copy(SRC / "protocol.py", root / "protocol.py")
    if walks_source is not None:
        (root / "executors" / "walks.py").write_text(textwrap.dedent(walks_source))
    return run_lint([str(root)], rules=[Proto001()])


def edge_walker(skip=()):
    """Source walking every declared edge (bar ``skip``), one function
    per edge.  Each walk sits in an exception handler, which starts from
    an unknown state, so walking ``src`` first is not itself checked."""
    lines = ["from repro.protocol import " + ", ".join(
        name.upper() for name in sorted(TABLES)
    )]
    for i, (name, src, dst) in enumerate(all_edges()):
        if (name, src, dst) in skip:
            continue
        lines += [
            f"def walk_{i}():",
            f"    proto = {name.upper()}.tracker()",
            "    try:",
            "        pass",
            "    except RuntimeError:",
            f"        proto.advance({src!r})",
            f"        proto.advance({dst!r})",
        ]
    return "\n".join(lines) + "\n"


def dead_edges(findings, table):
    return sorted(
        f.message.split(" of protocol")[0]
        for f in findings
        if f.rule == "PROTO001" and f"protocol {table!r}" in f.message
    )


class TestRealTables:
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_table_is_proven_clean(self, name):
        table = TABLES[name]
        rebuilt = ProtocolTable(
            table.name, table.initial, table.transitions, table.terminal
        )
        assert rebuilt.states == table.states

    def test_whole_tree_evidence_covers_every_edge(self):
        assert run_lint([str(SRC)], rules=[Proto001()]) == []

    def test_table_lines_locates_every_table(self):
        lines = table_lines(ast.parse((SRC / "protocol.py").read_text()))
        assert set(lines) == set(TABLES)
        assert all(line > 0 for line in lines.values())


class TestMutatedTables:
    def test_deadlock_state_is_rejected_with_trace(self):
        with pytest.raises(ValueError) as exc_info:
            ProtocolTable(
                "bad", "start", {"start": fs("wedge"), "wedge": frozenset()},
                fs("done"),
            )
        text = str(exc_info.value)
        assert "'wedge' is not terminal and has no outgoing" in text
        assert "path: start -> wedge" in text

    def test_livelock_cycle_is_rejected(self):
        with pytest.raises(ValueError, match="'loop' has no declared path") as exc_info:
            ProtocolTable(
                "bad", "start", {"start": fs("loop"), "loop": fs("loop")},
                fs("done"),
            )
        assert "path: start -> loop" in str(exc_info.value)

    def test_unreachable_island_is_rejected(self):
        with pytest.raises(ValueError, match="'limbo' is unreachable from 'start'"):
            ProtocolTable(
                "bad", "start",
                {"start": fs("mid"), "mid": fs("done"), "limbo": fs("mid")},
                fs("done"),
            )

    def test_terminal_free_cycle_fails_crash_safety(self):
        with pytest.raises(ValueError, match="no terminal state"):
            ProtocolTable("bad", "a", {"a": fs("b"), "b": fs("a")}, frozenset())

    def test_violation_format_includes_trace(self):
        with pytest.raises(ValueError) as exc_info:
            ProtocolTable(
                "bad", "start",
                {"start": fs("mid"), "mid": fs("wedge"), "wedge": frozenset()},
                fs("done"),
            )
        text = str(exc_info.value)
        assert text.startswith("protocol 'bad': ")
        assert text.endswith("(path: start -> mid -> wedge)")


class TestDeadTransitions:
    def test_no_evidence_means_every_edge_is_dead(self, tmp_path):
        findings = lint_tree(tmp_path)
        assert len(findings) == len(all_edges())
        assert {f.path for f in findings} == {"src/repro/protocol.py"}

    def test_full_evidence_clears_the_table(self, tmp_path):
        assert lint_tree(tmp_path, edge_walker()) == []

    def test_one_missing_edge_is_named(self, tmp_path):
        missing = ("shard_reassign", "pause", "drain")
        findings = lint_tree(tmp_path, edge_walker(skip={missing}))
        assert len(findings) == 1
        assert "'pause' -> 'drain'" in findings[0].message
        lines = table_lines(ast.parse((SRC / "protocol.py").read_text()))
        assert findings[0].line == lines["shard_reassign"]


class TestEvidence:
    TRACKER_SRC = """
        from repro.protocol import RC_SYNC

        def run(bad):
            proto = RC_SYNC.tracker()
            try:
                proto.advance("pause")
                proto.advance("drain")
                if bad:
                    proto.close("aborted")
                    return
                proto.advance("migration")
                proto.advance("routing_update")
                proto.advance("done")
            finally:
                proto.close("aborted")
    """

    def test_sequence_is_source_ordered(self, tmp_path):
        findings = lint_tree(tmp_path, self.TRACKER_SRC)
        # Only the stall edge goes unwalked.
        assert dead_edges(findings, "rc_sync") == [
            "declared transition 'drain' -> 'stalled'"
        ]

    def test_pairs_skip_the_interleaved_close(self, tmp_path):
        # drain -> migration is walked even though a close("aborted")
        # branch sits between them in source order.
        findings = lint_tree(tmp_path, self.TRACKER_SRC)
        assert not any(
            "'drain' -> 'migration'" in edge
            for edge in dead_edges(findings, "rc_sync")
        )


class TestCli:
    def test_model_gate_passes_on_the_tree(self, capsys):
        assert main(["lint", "--select", "PROTO001"]) == 0
        assert capsys.readouterr().out == ""

    def test_model_json_output_is_empty_on_success(self, capsys):
        import json

        assert main(["lint", "--select", "PROTO001", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []
