"""PROTO001 — state machines follow the checked-in transition tables.

The shard-reassignment, RC-sync, and fault-recovery protocols advance a
:class:`repro.protocol.ProtocolTracker` at every phase boundary.  This
rule imports the *same* tables the runtime enforces (single source of
truth) and statically verifies every ``advance``/``close`` call site:

- the state literal names a declared state of the tracker's table;
- ``close`` is only called with terminal states;
- consecutive ``advance`` calls within one straight-line statement body
  form declared edges (a refactor that, say, swaps the routing update
  before the drain is caught without running anything).

Control-flow joins reset the tracked state to "unknown" (branches may
diverge), so cross-branch sequences are checked by the runtime tracker
instead — this rule is deliberately a sound approximation that never
false-positives on reachable code.

When the linted tree contains ``repro/protocol.py``, the rule also
reports **dead edges**: every declared transition must be walked by some
checked call site.  A function walks ``src -> dst`` when its checked
``advance``/``close`` literals name ``src`` before ``dst`` in source
order — ordered, not adjacent, pairs, so a ``close("stalled")`` branch
between ``advance("drain")`` and ``advance("migration")`` still
witnesses ``drain -> migration``.  Every checked function counts,
whether or not anything calls it.  The finding sits at the table's line
in ``protocol.py``.

Unique catches in the mutation set (``tests/mutants.py``), both dead
edges of a ``stalled`` exit:

- a stalled global sync that closes its tracker as ``aborted`` instead
  of ``stalled`` (the dead ``drain -> stalled`` edge of ``rc_sync``);
- a node-crash recovery whose restarts all failed returning without
  ``close("stalled")`` (the dead ``detected -> stalled`` edge of
  ``fault_recovery``).
"""

from __future__ import annotations

import ast
import typing

from repro.lint.core import Finding, ParsedModule, ProjectRule
from repro.protocol import TABLES, ProtocolTable

#: Files that host the protocol implementations.
PROTOCOL_PATH_SUFFIXES = ("repro/executors/", "repro/faults/recovery.py")

#: The module that declares the tables (enables the dead-edge check).
PROTOCOL_MODULE = "repro/protocol.py"

_Edge = typing.Tuple[str, str]


def _table_symbols() -> typing.Dict[str, ProtocolTable]:
    """Importable name -> table, straight from :mod:`repro.protocol`."""
    import repro.protocol as protocol_module

    return {
        name: value
        for name, value in vars(protocol_module).items()
        if isinstance(value, ProtocolTable)
    }


def table_lines(tree: ast.Module) -> typing.Dict[str, int]:
    """Table name -> line of its ``_table(...)`` assignment."""
    lines: typing.Dict[str, int] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        if (
            isinstance(call.func, ast.Name)
            and call.func.id == "_table"
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            lines[call.args[0].value] = node.lineno
    return lines


def _walked_edges(
    table: ProtocolTable, sequence: typing.Sequence[str]
) -> typing.Set[_Edge]:
    """Declared edges between any two states in source order."""
    return {
        (src, dst)
        for i, src in enumerate(sequence)
        for dst in sequence[i + 1:]
        if dst in table.transitions.get(src, frozenset())
    }


class Proto001(ProjectRule):
    name = "PROTO001"
    description = (
        "protocol advance() sequences match the checked-in tables, and "
        "call sites walk every declared edge"
    )

    def __init__(self) -> None:
        self._symbols = _table_symbols()
        #: Table name -> the edges some checked function walks.
        self._walked: typing.Dict[str, typing.Set[_Edge]] = {
            name: set() for name in TABLES
        }
        #: (rel, table name -> line) of the linted ``repro/protocol.py``.
        self._protocol: typing.Optional[
            typing.Tuple[str, typing.Dict[str, int]]
        ] = None

    def check(self, module: ParsedModule) -> typing.Iterator[Finding]:
        if module.in_package(PROTOCOL_MODULE):
            self._protocol = (module.rel, table_lines(module.tree))
        if not module.in_package(*PROTOCOL_PATH_SUFFIXES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                trackers = self._tracker_vars(node)
                if trackers:
                    findings: typing.List[Finding] = []
                    states = {var: None for var in trackers}
                    walked = {var: [table.initial] for var, table in trackers.items()}
                    self._check_body(
                        module, node.body, trackers, states, walked, findings
                    )
                    yield from findings
                    for var, table in trackers.items():
                        self._walked[table.name] |= _walked_edges(
                            table, walked[var]
                        )

    def check_project(self) -> typing.Iterator[Finding]:
        """Dead edges: declared transitions no call site walks."""
        if self._protocol is None:
            return
        rel, lines = self._protocol
        for name in sorted(TABLES):
            table = TABLES[name]
            for src in sorted(table.transitions):
                for dst in sorted(table.transitions[src]):
                    if (src, dst) not in self._walked[name]:
                        yield Finding(
                            self.name, rel, lines.get(name, 1),
                            f"declared transition {src!r} -> {dst!r} of "
                            f"protocol {name!r} is walked by no call site",
                        )

    def _tracker_vars(
        self, func: ast.AST
    ) -> typing.Dict[str, ProtocolTable]:
        """Variables assigned from ``<TABLE>.tracker()`` in ``func``."""
        trackers: typing.Dict[str, ProtocolTable] = {}
        for node in ast.walk(func):
            table = self._tracker_table(node)
            if table is None:
                continue
            assert isinstance(node, ast.Assign)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    trackers[target.id] = table
        return trackers

    def _tracker_table(self, node: ast.AST) -> typing.Optional[ProtocolTable]:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            return None
        call = node.value
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "tracker"
            and isinstance(call.func.value, ast.Name)
        ):
            return None
        return self._symbols.get(call.func.value.id)

    # -- per-body sequence checking -----------------------------------------

    def _check_body(
        self,
        module: ParsedModule,
        body: typing.Sequence[ast.stmt],
        trackers: typing.Mapping[str, ProtocolTable],
        states: typing.Dict[str, typing.Optional[str]],
        walked: typing.Dict[str, typing.List[str]],
        findings: typing.List[Finding],
    ) -> None:
        """Walk one statement list, threading known tracker states.

        ``walked`` collects each tracker's checked state literals in
        source order (the dead-edge evidence)."""
        for stmt in body:
            if self._tracker_table(stmt) is not None:
                assert isinstance(stmt, ast.Assign)
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id in trackers:
                        states[target.id] = trackers[target.id].initial
                continue
            nested = self._nested_bodies(stmt)
            if nested is None:
                # Simple statement: check calls in source order.
                for call in self._calls_in(stmt):
                    self._check_call(
                        module, call, trackers, states, walked, findings
                    )
            else:
                touched = self._touched_vars(stmt, trackers)
                for branch_body, entry_known in nested:
                    entry = (
                        dict(states)
                        if entry_known
                        else {var: None for var in states}
                    )
                    self._check_body(
                        module, branch_body, trackers, entry, walked, findings
                    )
                # Join point: branches may have advanced differently.
                for var in touched:
                    states[var] = None

    def _nested_bodies(
        self, stmt: ast.stmt
    ) -> typing.Optional[typing.List[typing.Tuple[typing.List[ast.stmt], bool]]]:
        """(body, entry_state_known) pairs for compound statements."""
        if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
            return [(stmt.body, True), (stmt.orelse, True)]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [(stmt.body, True)]
        if isinstance(stmt, ast.Try):
            bodies: typing.List[typing.Tuple[typing.List[ast.stmt], bool]] = [
                (stmt.body, True),
                (stmt.orelse, False),
            ]
            for handler in stmt.handlers:
                bodies.append((handler.body, False))
            # finally runs from anywhere in the try: entry state unknown.
            bodies.append((stmt.finalbody, False))
            return bodies
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return []  # nested scopes get their own pass
        return None

    def _touched_vars(
        self, stmt: ast.stmt, trackers: typing.Mapping[str, ProtocolTable]
    ) -> typing.Set[str]:
        return {
            call.func.value.id  # type: ignore[union-attr]
            for call in self._calls_in(stmt)
            if isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
        } & set(trackers)

    def _calls_in(self, stmt: ast.stmt) -> typing.Iterator[ast.Call]:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("advance", "close")
            ):
                yield node

    def _check_call(
        self,
        module: ParsedModule,
        call: ast.Call,
        trackers: typing.Mapping[str, ProtocolTable],
        states: typing.Dict[str, typing.Optional[str]],
        walked: typing.Dict[str, typing.List[str]],
        findings: typing.List[Finding],
    ) -> None:
        func = call.func
        assert isinstance(func, ast.Attribute)
        if not isinstance(func.value, ast.Name):
            return
        var = func.value.id
        table = trackers.get(var)
        if table is None:
            return
        if not (
            call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            findings.append(
                self.finding(
                    module, call,
                    f"{var}.{func.attr}(...) must be called with a string "
                    f"literal state from protocol {table.name!r}",
                )
            )
            states[var] = None
            return
        state = call.args[0].value
        if state not in table.states:
            findings.append(
                self.finding(
                    module, call,
                    f"{state!r} is not a declared state of protocol "
                    f"{table.name!r} (declared: {sorted(table.states)})",
                )
            )
            states[var] = None
            return
        walked[var].append(state)
        if func.attr == "close":
            if state not in table.terminal:
                findings.append(
                    self.finding(
                        module, call,
                        f"{var}.close({state!r}) requires a terminal state "
                        f"of protocol {table.name!r} "
                        f"(terminal: {sorted(table.terminal)})",
                    )
                )
            states[var] = state
            return
        previous = states.get(var)
        if previous is not None and not table.allows(previous, state):
            findings.append(
                self.finding(
                    module, call,
                    f"undeclared transition {previous!r} -> {state!r} for "
                    f"protocol {table.name!r}",
                )
            )
        states[var] = state
