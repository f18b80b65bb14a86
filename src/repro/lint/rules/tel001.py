"""TEL001 — telemetry discipline: spans always close, arguments stay cheap.

Three invariants keep telemetry safe to leave in hot code:

1. **Every span is closed on all paths.**  A span opened with
   ``begin_span`` must be finished in a ``finally`` block of the same
   function — early returns, crash kills, and exceptions otherwise leak
   an open span and corrupt exported phase logs.  (``Span.finish`` is
   idempotent, so the ``finally`` double-finish idiom is free.)
2. **No expensive argument construction reaches a bus call unguarded.**
   With telemetry off, ``NULL_BUS`` makes ``emit``/``mark``/``finish``
   no-ops — but Python still evaluates the *arguments*.  A comprehension
   or ``sum(...)``/``sorted(...)`` in an argument list runs on every call
   even when the result is discarded; hoist the value into a local that
   exists anyway, or guard the call with ``if bus.enabled:``.
3. **Probe and flight-recorder calls in hot modules stay guarded.**
   Latency probes and the flight recorder are plain ``None`` attributes
   on uninstrumented runs (there is no null-object for them — a method
   call would still cost a dispatch).  In the hot modules a
   ``record``/``note``/``dump`` call on ``latency_probe``/``flight``
   must sit under an ``is not None`` check; the idiom is to bind the
   attribute to a local first so the disabled path is one load + one
   ``is not None`` test.

Unique catch in the mutation set (``tests/mutants.py``): the rebalance
span finished on exceptions only, not in ``finally``, so a rebalance
killed mid-move leaves it open.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.core import Finding, ParsedModule, Rule
from repro.lint.rules.hot001 import HOT_PATH_SUFFIXES

#: Telemetry call names whose arguments must be cheap.
_BUS_CALLS = frozenset({"emit", "mark", "finish", "begin_span"})

#: Calls that iterate their argument (linear work at call time).
_EXPENSIVE_CALLS = frozenset({"sum", "sorted"})

#: Attributes that hold an optional probe / recorder (``None`` when the
#: run is uninstrumented).
_PROBE_ATTRS = frozenset({"latency_probe", "flight", "flight_recorder"})

#: Methods on probes / recorders that must not run unguarded.
_PROBE_CALLS = frozenset({"record", "note", "on_record", "dump"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _test_guards_telemetry(test: ast.AST) -> bool:
    """True when an ``if`` test checks the bus fast path."""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
        if isinstance(node, ast.Name) and node.id in ("NULL_BUS", "NULL_SPAN"):
            return True
    return False


def _nonnull_guards(test: ast.AST) -> typing.FrozenSet[str]:
    """Names proven non-None by an ``if`` test (``x is not None``).

    Both locals (``probe is not None``) and attributes
    (``self.latency_probe is not None`` — keyed by the attribute name)
    count as guards.
    """
    names: typing.Set[str] = set()
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], ast.IsNot)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None
        ):
            left = node.left
            if isinstance(left, ast.Name):
                names.add(left.id)
            elif isinstance(left, ast.Attribute):
                names.add(left.attr)
    return frozenset(names)


def _probe_aliases(func: ast.AST) -> typing.FrozenSet[str]:
    """Locals bound from a probe attribute (``probe = self.latency_probe``)."""
    aliases: typing.Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in _PROBE_ATTRS
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.add(target.id)
    return frozenset(aliases)


def _expensive_arg(call: ast.Call) -> typing.Optional[ast.AST]:
    """The first expensive subexpression in ``call``'s arguments, if any."""
    arg_roots: typing.List[ast.AST] = list(call.args)
    arg_roots.extend(kw.value for kw in call.keywords)
    for root in arg_roots:
        for node in ast.walk(root):
            if isinstance(node, _COMPREHENSIONS):
                return node
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _EXPENSIVE_CALLS
            ):
                return node
    return None


class Tel001(Rule):
    name = "TEL001"
    description = "spans close on all paths; bus-call arguments stay cheap"

    def check(self, module: ParsedModule) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_span_lifecycle(module, node)
        yield from self._check_arguments(module, module.tree, guarded=False)
        if module.in_package(*HOT_PATH_SUFFIXES):
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    aliases = _probe_aliases(node)
                    for stmt in node.body:
                        yield from self._check_probe_calls(
                            module, stmt, aliases, frozenset()
                        )

    # -- 1. span lifecycle ---------------------------------------------------

    def _check_span_lifecycle(
        self, module: ParsedModule, func: ast.AST
    ) -> typing.Iterator[Finding]:
        opened: typing.Dict[str, ast.AST] = {}
        finished_in_finally: typing.Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not func:
                    continue  # nested functions get their own pass
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                call = node.value
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "begin_span"
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            opened.setdefault(target.id, node)
            elif isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    for sub in ast.walk(stmt):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "finish"
                            and isinstance(sub.func.value, ast.Name)
                        ):
                            finished_in_finally.add(sub.func.value.id)
        for name, node in opened.items():
            if name not in finished_in_finally:
                yield self.finding(
                    module, node,
                    f"span {name!r} is not finished in a finally block — an "
                    "exception or early return would leak it open "
                    "(add try/finally with a status='aborted' finish)",
                )

    # -- 2. cheap arguments --------------------------------------------------

    def _check_arguments(
        self, module: ParsedModule, node: ast.AST, guarded: bool
    ) -> typing.Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If):
                child_guard = guarded or _test_guards_telemetry(child.test)
                for stmt in child.body:
                    yield from self._check_arguments(module, stmt, child_guard)
                    yield from self._visit_expr_calls(module, stmt, child_guard)
                for stmt in child.orelse:
                    yield from self._check_arguments(module, stmt, guarded)
                    yield from self._visit_expr_calls(module, stmt, guarded)
            else:
                yield from self._check_arguments(module, child, guarded)
                yield from self._visit_expr_calls(module, child, guarded)

    # -- 3. guarded probe calls in hot modules --------------------------------

    def _check_probe_calls(
        self,
        module: ParsedModule,
        node: ast.AST,
        aliases: typing.FrozenSet[str],
        guarded: typing.FrozenSet[str],
    ) -> typing.Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested functions get their own pass
        if isinstance(node, ast.Call):
            yield from self._probe_call_finding(module, node, aliases, guarded)
        if isinstance(node, ast.If):
            inner = guarded | _nonnull_guards(node.test)
            yield from self._check_probe_calls(module, node.test, aliases, guarded)
            for stmt in node.body:
                yield from self._check_probe_calls(module, stmt, aliases, inner)
            for stmt in node.orelse:
                yield from self._check_probe_calls(module, stmt, aliases, guarded)
            return
        for child in ast.iter_child_nodes(node):
            yield from self._check_probe_calls(module, child, aliases, guarded)

    def _probe_call_finding(
        self,
        module: ParsedModule,
        call: ast.Call,
        aliases: typing.FrozenSet[str],
        guarded: typing.FrozenSet[str],
    ) -> typing.Iterator[Finding]:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in _PROBE_CALLS):
            return
        receiver = func.value
        if isinstance(receiver, ast.Attribute) and receiver.attr in _PROBE_ATTRS:
            key = receiver.attr
        elif isinstance(receiver, ast.Name) and receiver.id in aliases:
            key = receiver.id
        else:
            return
        if key in guarded:
            return
        yield self.finding(
            module, call,
            f".{func.attr}(...) on {key!r} runs unguarded in a hot module — "
            "probes are None on uninstrumented runs; bind the attribute to "
            "a local and wrap the call in `if <local> is not None:`",
        )

    def _visit_expr_calls(
        self, module: ParsedModule, node: ast.AST, guarded: bool
    ) -> typing.Iterator[Finding]:
        if guarded or not isinstance(node, ast.Call):
            return
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _BUS_CALLS):
            return
        expensive = _expensive_arg(node)
        if expensive is not None:
            yield self.finding(
                module, node,
                f".{func.attr}(...) evaluates an expensive argument "
                "(comprehension/sum/sorted) even when telemetry is off — "
                "hoist it into an existing local or guard with "
                "`if bus.enabled:`",
            )
