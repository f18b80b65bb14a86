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
hot module; the rule checks those method bodies.

Catch in the mutation set (``tests/mutants.py``): ``_RemoteSend``
spawning a delivery process instead of building a ``_Delivery``.  No
longer unique: the process schedules more events than the callbacks,
so the event-count pins of tier-1 fail too.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.core import Finding, ParsedModule, Rule

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


class Sim001(Rule):
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
