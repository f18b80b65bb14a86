"""Tests for the whole-project call graph and the DET002 taint engine.

Projects are built from small in-memory sources so each test states the
whole program it reasons about.  Paths use ``src/repro/...`` rels, the
same shape the linker sees for the real tree.
"""

import ast
import textwrap

from repro.lint import run_lint, taint
from repro.lint.graph import (
    ALL_KINDS,
    RESOLVED_KINDS,
    build_project,
    module_name_for,
)


class _Src:
    """Minimal ``_SourceModule``: rel + parsed tree."""

    def __init__(self, rel, source):
        self.rel = rel
        self.tree = ast.parse(textwrap.dedent(source))


def build(mods):
    return build_project([_Src(rel, src) for rel, src in mods.items()])


def edge_set(project, fid, kinds=RESOLVED_KINDS):
    return {(e.callee, e.kind) for e in project.out_edges(fid, kinds=kinds)}


class TestModuleNames:
    def test_src_layout(self):
        assert module_name_for("src/repro/lint/graph.py") == "repro.lint.graph"

    def test_fixture_layout_anchors_at_repro(self):
        rel = "tests/fixtures/lint/repro/executors/own001_bad.py"
        assert module_name_for(rel) == "repro.executors.own001_bad"

    def test_init_names_the_package(self):
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"


class TestResolver:
    def test_module_level_name_call(self):
        p = build({
            "src/repro/a.py": """
                def f():
                    return 1

                def g():
                    return f()
            """,
        })
        assert edge_set(p, "repro.a:g") == {("repro.a:f", "call")}

    def test_import_chases_re_exports(self):
        p = build({
            "src/repro/a.py": """
                def f():
                    return 1
            """,
            "src/repro/b.py": """
                from repro.a import f
            """,
            "src/repro/c.py": """
                from repro.b import f

                def use():
                    return f()
            """,
        })
        assert ("repro.a:f", "call") in edge_set(p, "repro.c:use")

    def test_self_call_resolves_through_mro(self):
        p = build({
            "src/repro/a.py": """
                class Base:
                    def helper(self):
                        return 0

                class Child(Base):
                    def run(self):
                        return self.helper()
            """,
        })
        assert ("repro.a:Base.helper", "call") in edge_set(p, "repro.a:Child.run")

    def test_dynamic_dispatch_targets_overrides(self):
        p = build({
            "src/repro/a.py": """
                class Base:
                    def run(self):
                        return self.step()

                class Fast(Base):
                    def step(self):
                        return 1

                class Slow(Base):
                    def step(self):
                        return 2
            """,
        })
        callees = {callee for callee, _ in edge_set(p, "repro.a:Base.run")}
        assert {"repro.a:Fast.step", "repro.a:Slow.step"} <= callees

    def test_decorator_is_an_edge(self):
        p = build({
            "src/repro/a.py": """
                def deco(fn):
                    return fn

                @deco
                def target():
                    return 1
            """,
        })
        assert any(e.callee == "repro.a:deco" for e in p.edges)

    def test_functools_partial_records_a_ref(self):
        p = build({
            "src/repro/a.py": """
                import functools

                def worker(x):
                    return x

                def make():
                    return functools.partial(worker, 1)
            """,
        })
        assert ("repro.a:worker", "ref") in edge_set(
            p, "repro.a:make", kinds=ALL_KINDS
        )

    def test_attribute_call_falls_back_to_heuristic(self):
        p = build({
            "src/repro/a.py": """
                class Worker:
                    def run(self):
                        return 1

                def drive(worker):
                    return worker.run()
            """,
        })
        assert edge_set(p, "repro.a:drive", kinds=RESOLVED_KINDS) == set()
        assert ("repro.a:Worker.run", "heuristic") in edge_set(
            p, "repro.a:drive", kinds=ALL_KINDS
        )

    def test_unbindable_call_lands_in_unresolved_report(self):
        p = build({
            "src/repro/a.py": """
                def use(cb):
                    return cb()
            """,
        })
        assert [(u.function, u.target) for u in p.unresolved] == [("use", "cb")]
        assert "use" in p.unresolved_report()


class TestTaint:
    def analyze(self, mods):
        return taint.analyze(build(mods))

    def test_return_value_propagation(self):
        writes = self.analyze({
            "src/repro/sweep/out.py": """
                import time

                def clock():
                    return time.monotonic()

                def report(path):
                    path.write_text(str(clock()))
            """,
        })
        assert [w.witness() for w in writes] == ["report -> clock"]

    def test_closure_capture_propagation(self):
        writes = self.analyze({
            "src/repro/sweep/out.py": """
                import time

                def report(path):
                    def clock():
                        return time.monotonic()
                    path.write_text(str(clock()))
            """,
        })
        assert len(writes) == 1
        assert writes[0].witness() == "report -> report.clock"

    def test_argument_propagation_is_one_level(self):
        writes = self.analyze({
            "src/repro/sweep/out.py": """
                import time

                def emit(handle, value):
                    handle.write(str(value))

                def report(handle):
                    emit(handle, time.monotonic())
            """,
        })
        assert [w.witness() for w in writes] == ["emit -> report"]

    def test_seeded_generator_is_a_barrier(self):
        writes = self.analyze({
            "src/repro/sweep/out.py": """
                import time

                import numpy as np

                def clock():
                    return time.monotonic()

                def report(path, seed):
                    rng = np.random.default_rng(seed)
                    path.write_text(str(float(rng.random()) + clock()))
            """,
        })
        assert writes == []

    def test_sanitizer_with_own_source_stays_tainted(self):
        writes = self.analyze({
            "src/repro/sweep/out.py": """
                import time

                import numpy as np

                def report(path, seed):
                    rng = np.random.default_rng(seed)
                    path.write_text(str(time.monotonic()))
            """,
        })
        assert len(writes) == 1

    def test_writes_outside_sink_paths_are_not_flagged(self):
        writes = self.analyze({
            "src/repro/scheduler/out.py": """
                import time

                def report(path):
                    path.write_text(str(time.monotonic()))
            """,
        })
        assert writes == []


class TestChangedScoping:
    """Lint has no changed-file scoping: every run reports the whole tree."""

    def _tree(self, tmp_path):
        (tmp_path / "dirty.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n"
        )
        (tmp_path / "user.py").write_text(
            "from dirty import now\n\n\ndef caller():\n    return now()\n"
        )
        (tmp_path / "bystander.py").write_text("VALUE = 1\n")

    def test_no_changed_set_reports_all(self, tmp_path):
        self._tree(tmp_path)
        assert {f.rule for f in run_lint([str(tmp_path)])} == {"DET001"}


class TestStats:
    def test_run_lint_fills_stats(self):
        stats = {}
        run_lint(
            ["tests/fixtures/lint/repro/executors/own001_bad.py"], stats=stats
        )
        assert stats["modules"] == 1
        assert stats["functions"] > 0
        assert "unresolved" in stats
