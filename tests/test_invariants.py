"""Replay and crash invariants, judged by the outcome of whole runs.

The paper's consistent reassignment (§3.3) is judged by replaying runs:

- the same seed gives the same result under any wall clock and any
  ``PYTHONHASHSEED``; the one wall-clock field a result carries is the
  scheduler's own solver time;
- a node crash kills every process of the executors whose main process
  ran there, so each control-plane span such an executor had open closes
  at the crash instant;
- no loop walks a set in its hash order (a plain scan of ``src/repro``,
  with a one-entry known list).
"""

import ast
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro import cli
from repro.cluster.node import Cluster
from repro.sweep import TrialConfig, build_system
from repro.telemetry.events import EventBus

SRC = pathlib.Path(repro.__file__).parent
#: The one field of a run's JSON result that reads the wall clock.
WALL_CLOCK_FIELD = "scheduler_mean_wall_seconds"


def _run_json(capsys, argv):
    assert cli.main(["run", "--json", *argv]) == 0
    result = json.loads(capsys.readouterr().out)
    result.pop(WALL_CLOCK_FIELD)
    return result


class TestWallClock:
    def test_a_jumping_wall_clock_does_not_change_a_run(self, capsys, monkeypatch):
        argv = ["--paradigm", "elasticutor", "--omega", "8",
                "--duration", "16", "--warmup", "4"]
        plain = _run_json(capsys, argv)
        for name in ("monotonic", "perf_counter", "time"):
            # Each read leaps 5 s past the last.
            start = getattr(time, name)()
            monkeypatch.setattr(time, name, itertools.count(start + 5.0, 5.0).__next__)
        jumped = _run_json(capsys, argv)
        monkeypatch.undo()
        assert jumped == plain
        assert plain["processed_tuples"] > 0


class TestHashSeed:
    @pytest.mark.parametrize("paradigm", ["elasticutor", "resource-centric"])
    def test_sse_run_does_not_depend_on_the_hash_seed(self, paradigm):
        # SSE has several operators, so a loop over them in str-set order
        # (the crash's victim list, say) changes what the run does.
        argv = [
            sys.executable, "-m", "repro", "run", "--paradigm", paradigm,
            "--workload", "sse", "--nodes", "16", "--duration", "6",
            "--warmup", "2", "--fault-spec", "node_crash@3:node=3", "--json",
        ]
        results = []
        for seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC.parent))
            proc = subprocess.run(
                argv, env=env, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout)
            result.pop(WALL_CLOCK_FIELD)
            results.append(result)
        assert results[0] == results[1]
        assert results[0]["recovery"]["faults_injected"] == 1


# -- set iteration order -------------------------------------------------------

#: Binary operators that return a set when an operand is one.
_SET_ALGEBRA = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Loops over a set that are known to leak its hash order, keyed by
#: ``(file, function)``.  Fixing one means deleting its entry.
KNOWN_SET_ORDER = {
    ("scheduler/scheduler.py", "DynamicScheduler._apply"):
        "known hash-seed bug: sorting the loop re-pins perfbench (ROADMAP item 2)",
}


def _is_set_expr(node):
    """A set display, ``set(...)``, or set algebra with such an operand."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_ALGEBRA):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
    )


def _orders_a_set(node):
    """A ``for`` over a set, or ``list``/``tuple`` of one."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return _is_set_expr(node.iter)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple")
        and len(node.args) == 1
        and _is_set_expr(node.args[0])
    )


def set_order_sites(source):
    """``(qualified function, line)`` of every site that orders a set."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif _orders_a_set(node):
            sites.append((scope or "<module>", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


class TestSetOrder:
    @pytest.mark.parametrize("line", [
        "for node in set(current) | set(target): pass",
        "for name in set(names): pass",
        "for name in {a, b}: pass",
        "names = list(set(a) - b)",
        "names = tuple({n for n in a})",
    ])
    def test_scan_flags_a_set_ordered_by_hash(self, line):
        assert set_order_sites(f"def f():\n    {line}\n") == [("f", 2)]

    @pytest.mark.parametrize("line", [
        "for node in sorted(set(current) | set(target)): pass",
        "for name in names: pass",
        "count = len(set(a) | b)",
        "names = list(sorted(set(a)))",
    ])
    def test_scan_passes_an_explicit_order(self, line):
        assert set_order_sites(f"def f():\n    {line}\n") == []

    def test_no_loop_in_src_walks_a_set_in_hash_order(self):
        found = {
            (path.relative_to(SRC).as_posix(), function)
            for path in sorted(SRC.rglob("*.py"))
            for function, _ in set_order_sites(path.read_text())
        }
        assert found - KNOWN_SET_ORDER.keys() == set(), "wrap the set in sorted(...)"
        assert KNOWN_SET_ORDER.keys() - found == set(), "delete the stale known entry"


# -- spans across node crashes --------------------------------------------------

CRASHES = "node_crash@5:node=3;node_crash@7:node=0;node_crash@11:node=5"


@pytest.fixture
def span_census(monkeypatch):
    """Run micro Elasticutor through three node crashes with every span
    recorded.  Returns ``(spans, crashes)``: each span begun, and each
    crash as ``(time, names of the executors whose main process ran on
    the crashed node)``."""
    spans = []
    crashes = []
    begin_span = EventBus.begin_span
    fail_node = Cluster.fail_node

    def recording_begin_span(self, *args, **kwargs):
        span = begin_span(self, *args, **kwargs)
        spans.append(span)
        return span

    def recording_fail_node(self, node_id):
        crashes.append((system.env.now, {
            executor.name
            for executors in system.executors_by_operator.values()
            for executor in executors
            if executor.alive and executor.local_node == node_id
        }))
        return fail_node(self, node_id)

    monkeypatch.setattr(EventBus, "begin_span", recording_begin_span)
    monkeypatch.setattr(Cluster, "fail_node", recording_fail_node)
    trial = TrialConfig(
        omega=8.0, duration=20.0, warmup=4.0, system_args={"fault_spec": CRASHES},
    )
    system = build_system(trial, telemetry=True)
    system.run(duration=trial.duration, warmup=trial.warmup)
    return spans, crashes


class TestSpanCensus:
    def test_a_node_crash_closes_the_spans_of_the_executors_it_kills(self, span_census):
        spans, crashes = span_census
        assert [t for t, _ in crashes] == [5.0, 7.0, 11.0]
        checked = 0
        for t, killed in crashes:
            assert killed, f"the crash at {t} s hit no executor's main process"
            for span in spans:
                if span.source in killed and span.start < t:
                    checked += 1
                    assert span.end is not None and span.end <= t, (
                        f"{span!r} outlived the crash of its executor at {t} s"
                    )
        assert checked > 0
