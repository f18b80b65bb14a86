"""SIM001 — callback-compiled delivery paths must stay callbacks.

The hot delivery classes (``_Delivery``/``_RemoteSend`` in
``executors/channels.py``, condition fan-in in ``sim/events.py``) are
generator processes hand-compiled into slotted callback objects — that
is where PR 3's throughput came from.  Their methods run *inside* the
event loop's callback dispatch, so they must never:

- contain ``yield``/``await`` (turning the callback back into a
  generator/coroutine silently breaks dispatch — the body never runs);
- spawn a process (``env.process(...)`` allocates the exact frames the
  compilation removed, and re-enters the scheduler from dispatch);
- call a blocking API (``get``/``put``/``request``/``transfer``/
  ``timeout``) and *discard* the returned event — without chaining a
  callback onto it, the continuation is lost and the tuple stalls
  forever.

A callback class is one defining ``__call__`` or ``_on_*`` methods in a
hot module.  The syntactic pass checks those method bodies directly; the
*transitive* pass (``check_project``) additionally follows the resolved
call graph outward from every callback method, so a process spawn or a
discarded blocking call hidden one helper down is flagged with the call
chain that reaches it.  Only resolved (``call``/``ref``) edges are
followed — a by-name heuristic edge would manufacture false positives
(any unrelated method that happens to be called ``process``).

Unique catch in the mutation set (``tests/mutants.py``): ``_RemoteSend``
spawning a delivery process instead of building a ``_Delivery``.
Results stay correct; only the per-message frames the compilation
removed come back.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.core import Finding, ParsedModule, ProjectRule, rel_matches

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import Project

#: Modules that host callback-compiled classes.
CALLBACK_PATH_SUFFIXES = ("repro/executors/", "repro/sim/")

#: Event-returning simulation APIs that block a generator caller.
_BLOCKING_ATTRS = frozenset({"get", "put", "request", "timeout", "transfer"})


def _callback_methods(cls: ast.ClassDef) -> typing.List[ast.FunctionDef]:
    return [
        stmt
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef)
        and (stmt.name == "__call__" or stmt.name.startswith("_on_"))
    ]


class Sim001(ProjectRule):
    name = "SIM001"
    description = "callback-compiled delivery paths never block or yield"

    def check(self, module: ParsedModule) -> typing.Iterator[Finding]:
        if not module.in_package(*CALLBACK_PATH_SUFFIXES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in _callback_methods(node):
                yield from self._check_method(module, node, method)

    def _check_method(
        self, module: ParsedModule, cls: ast.ClassDef, method: ast.FunctionDef
    ) -> typing.Iterator[Finding]:
        label = f"{cls.name}.{method.name}"
        for node in ast.walk(method):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                yield self.finding(
                    module, node,
                    f"{label} contains yield — a callback that becomes a "
                    "generator never executes under event dispatch",
                )
            elif isinstance(node, ast.Await):
                yield self.finding(
                    module, node,
                    f"{label} contains await — callbacks run synchronously "
                    "inside event dispatch",
                )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr == "process":
                    yield self.finding(
                        module, node,
                        f"{label} spawns a process — callback-compiled "
                        "paths exist to avoid Process/generator frames; "
                        "chain callbacks on events instead",
                    )
        # Discarded blocking calls: a bare `x.get(...)` statement loses
        # the returned event (and with it, the continuation).
        for stmt in ast.walk(method):
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr in _BLOCKING_ATTRS
            ):
                yield self.finding(
                    module, stmt,
                    f"{label} calls .{stmt.value.func.attr}(...) and "
                    "discards the returned event — chain a callback onto "
                    "it or the continuation is lost",
                )

    # -- transitive pass over the call graph ---------------------------------

    def check_project(self, project: "Project") -> typing.Iterator[Finding]:
        from repro.lint.graph import (
            FACT_AWAIT,
            FACT_BLOCKING_DISCARD,
            FACT_PROCESS_SPAWN,
            RESOLVED_KINDS,
        )

        entries: typing.List[str] = []
        for summary in project.modules.values():
            if not rel_matches(summary.rel, CALLBACK_PATH_SUFFIXES):
                continue
            for cls in summary.classes:
                for method in cls.methods:
                    if method == "__call__" or method.startswith("_on_"):
                        fid = f"{summary.module}:{cls.qualname}.{method}"
                        if fid in project.functions:
                            entries.append(fid)
        forest = project.reach_forest(sorted(entries), kinds=RESOLVED_KINDS)
        flagged_facts = {FACT_PROCESS_SPAWN, FACT_BLOCKING_DISCARD, FACT_AWAIT}
        for fid in sorted(forest):
            depth = forest[fid][1]
            chain = " -> ".join(
                f.split(":", 1)[1] for f in project.chain(forest, fid)
            )
            func = project.functions[fid]
            rel = project.rel_of(fid)
            if depth > 0:
                # Depth 0 is the callback body itself: the syntactic pass
                # above already covers it with more specific messages.
                for fact in func.facts:
                    if fact.kind in flagged_facts:
                        yield Finding(
                            self.name, rel, fact.line,
                            f"{fact.detail} is reachable from callback "
                            f"dispatch (call chain: {chain})",
                        )
            for edge in project.out_edges(fid, kinds=RESOLVED_KINDS):
                callee = project.functions.get(edge.callee)
                if (
                    edge.kind == "call"
                    and edge.discarded
                    and callee is not None
                    and callee.is_generator
                ):
                    callee_name = edge.callee.split(":", 1)[1]
                    yield Finding(
                        self.name, rel, edge.line,
                        f"calls generator function {callee_name} and "
                        "discards the result on a callback path (chain: "
                        f"{chain}) — the body never runs",
                    )
