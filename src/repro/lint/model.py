"""Explicit-state model checker for the protocol tables.

The transition tables in :mod:`repro.protocol` are the single source of
truth for the control-plane state machines, but until now they were only
validated *passively*: the runtime tracker raises on transitions that
happen to execute, and PROTO001 checks the call sites that happen to be
straight-line.  A table edge nobody exercises, a state that cannot reach
``done``, or a phase graph that wedges under a fault interleaving would
all ship silently.

This module checks each table **exhaustively**:

- **Crash safety** — the table declares at least one terminal state, so
  a crash landing in a ``finally`` block can always ``close()`` the
  protocol (terminal states are enterable from any phase).
- **Reachability** — every non-terminal state and every declared
  transition is reachable from the initial state.
- **Deadlock freedom** — no reachable non-terminal state has an empty
  outgoing set (a wedge the runtime could only escape by aborting).
- **Termination** — every reachable state has a *declared* path to a
  terminal state (the implicit any-state abort edge is deliberately not
  counted: a protocol that can only ever abort is a livelock).
- **Fault product** — the table is crossed with the transient fault
  events of :mod:`repro.faults` (``partition``, ``latency_spike``
  injection and healing; node/core crashes are the abort path covered by
  crash safety).  While a partition is active the network-bound phases
  (:data:`NETWORK_BLOCKED_PHASES`) cannot be entered; the checker
  verifies every reachable ``(state, faults)`` configuration can still
  reach a terminal configuration.
- **Dead transitions** — every declared edge is exercised by at least
  one *live* runtime ``ProtocolTracker`` call site.  Evidence comes from
  an ordered-literal scan of ``advance``/``close`` call sites; liveness
  (does anything call the evidencing function?) comes from the
  :mod:`repro.lint.graph` call graph.

Violations carry a counterexample trace (the event path into the bad
configuration) so a rejected table is debuggable from the message alone.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import typing

from repro.lint.graph import ALL_KINDS, MODULE_SCOPE, Project, module_name_for
from repro.protocol import TABLES, ProtocolTable

#: Protocol phases that require the network: state migration (or
#: restoration), routing pushes, executor repair.  A partition blocks them.
NETWORK_BLOCKED_PHASES = frozenset(
    {"migration", "routing_update", "repaired"}
)

#: Transient fault kinds crossed into the product (see repro/faults/):
#: each can be injected and later healed at any point of the protocol.
TRANSIENT_FAULTS = ("latency_spike", "partition")

#: Rule id used for model-checker findings.
MODEL_RULE = "MODEL"

_Config = typing.Tuple[str, typing.FrozenSet[str]]
_Event = typing.Tuple[str, str]  # ("advance"|"inject"|"heal", operand)


@dataclasses.dataclass(frozen=True, slots=True)
class Violation:
    """One invariant failure, with a counterexample event trace."""

    table: str
    kind: str
    message: str
    trace: typing.Tuple[str, ...] = ()

    def format(self) -> str:
        text = f"[{self.table}] {self.kind}: {self.message}"
        if self.trace:
            text += "\n    trace: " + " ".join(self.trace)
        return text


@dataclasses.dataclass(frozen=True, slots=True)
class EvidenceSite:
    """One runtime call site sequence for one tracker variable."""

    rel: str
    qualname: str
    line: int
    table: str
    sequence: typing.Tuple[str, ...]

    @property
    def fid(self) -> str:
        return f"{module_name_for(self.rel)}:{self.qualname}"

    def pairs(self, table: ProtocolTable) -> typing.Set[typing.Tuple[str, str]]:
        """Declared (src, dst) edges witnessed by this site.

        Ordered pairs, not adjacent pairs: within one function the
        literals appear in source order but branches may skip some
        (e.g. a ``close("stalled")`` between ``advance("drain")`` and
        ``advance("migration")``), so any source-ordered pair that the
        table declares counts as a witness.
        """
        seq = self.sequence
        found: typing.Set[typing.Tuple[str, str]] = set()
        for i, src in enumerate(seq):
            for dst in seq[i + 1:]:
                if dst in table.transitions.get(src, frozenset()):
                    found.add((src, dst))
        return found


# -- evidence collection -----------------------------------------------------


def _table_symbols() -> typing.Dict[str, ProtocolTable]:
    import repro.protocol as protocol_module

    return {
        name: value
        for name, value in vars(protocol_module).items()
        if isinstance(value, ProtocolTable)
    }


def _ordered_calls(node: ast.AST) -> typing.Iterator[ast.Call]:
    """Pre-order (source-order) calls, skipping nested scope bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from _ordered_calls(child)


class _ParsedLike(typing.Protocol):
    rel: str
    tree: ast.Module


def collect_evidence(
    modules: typing.Iterable[_ParsedLike],
) -> typing.List[EvidenceSite]:
    """Scan ``advance``/``close`` literal sequences per tracker variable."""
    symbols = _table_symbols()
    sites: typing.List[EvidenceSite] = []
    for module in modules:
        for func, qualname in _functions_with_qualnames(module.tree):
            sites.extend(_function_evidence(module.rel, func, qualname, symbols))
    return sites


def _functions_with_qualnames(
    tree: ast.Module,
) -> typing.Iterator[typing.Tuple[ast.AST, str]]:
    def walk(
        node: ast.AST, prefix: str
    ) -> typing.Iterator[typing.Tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                yield child, qual
                yield from walk(child, qual)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                yield from walk(child, qual)
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _function_evidence(
    rel: str,
    func: ast.AST,
    qualname: str,
    symbols: typing.Mapping[str, ProtocolTable],
) -> typing.List[EvidenceSite]:
    trackers: typing.Dict[str, ProtocolTable] = {}
    first_line: typing.Dict[str, int] = {}
    for node in ast.walk(func):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "tracker"
            and isinstance(call.func.value, ast.Name)
        ):
            continue
        table = symbols.get(call.func.value.id)
        if table is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                trackers[target.id] = table
                first_line.setdefault(target.id, node.lineno)
    if not trackers:
        return []
    sequences: typing.Dict[str, typing.List[str]] = {
        var: [table.initial] for var, table in trackers.items()
    }
    for call in _ordered_calls(func):
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ("advance", "close")
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in trackers
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            continue
        sequences[call.func.value.id].append(call.args[0].value)
    return [
        EvidenceSite(
            rel=rel,
            qualname=qualname,
            line=first_line[var],
            table=trackers[var].name,
            sequence=tuple(seq),
        )
        for var, seq in sequences.items()
    ]


def live_evidence_pairs(
    sites: typing.Iterable[EvidenceSite],
    project: typing.Optional[Project],
    tables: typing.Mapping[str, ProtocolTable],
) -> typing.Dict[str, typing.Set[typing.Tuple[str, str]]]:
    """Per-table witnessed edges, restricted to *live* call sites.

    A site is live when the call graph shows at least one caller (any
    edge kind — for liveness an over-approximation is the safe side), or
    when it is module-level code, or when no project is supplied.
    """
    pairs: typing.Dict[str, typing.Set[typing.Tuple[str, str]]] = {
        name: set() for name in tables
    }
    for site in sites:
        table = tables.get(site.table)
        if table is None:
            continue
        if project is not None:
            fid = site.fid
            if (
                fid in project.functions
                and site.qualname != MODULE_SCOPE
                and not project.in_edges(fid, kinds=ALL_KINDS)
            ):
                continue  # dead code cannot exercise anything
        pairs[site.table] |= site.pairs(table)
    return pairs


# -- table checking ----------------------------------------------------------


def _declared_edges(
    table: ProtocolTable,
) -> typing.List[typing.Tuple[str, str]]:
    return [
        (src, dst)
        for src, dsts in sorted(table.transitions.items())
        for dst in sorted(dsts)
    ]


def _forward_reach(
    table: ProtocolTable,
) -> typing.Tuple[
    typing.Set[str], typing.Dict[str, typing.Tuple[typing.Optional[str], str]]
]:
    """Declared-edge reachability from the initial state.

    Returns (reachable set, parents) where parents maps each reached
    state to ``(previous state, event label)`` for trace rebuilding.
    Terminal states are additionally enterable from any reachable state
    (the runtime ``close()`` edge).
    """
    parents: typing.Dict[str, typing.Tuple[typing.Optional[str], str]] = {
        table.initial: (None, "start")
    }
    queue: typing.Deque[str] = collections.deque([table.initial])
    while queue:
        state = queue.popleft()
        for dst in sorted(table.transitions.get(state, frozenset())):
            if dst not in parents:
                parents[dst] = (state, f"advance({dst!r})")
                queue.append(dst)
        if state not in table.terminal:
            for dst in sorted(table.terminal):
                if dst not in parents:
                    parents[dst] = (state, f"close({dst!r})")
                    queue.append(dst)
    return set(parents), parents


def _trace_to(
    parents: typing.Mapping[str, typing.Tuple[typing.Optional[str], str]],
    state: str,
) -> typing.Tuple[str, ...]:
    steps: typing.List[str] = []
    cursor: typing.Optional[str] = state
    while cursor is not None:
        previous, event = parents[cursor]
        steps.append(cursor if previous is None else f"--{event}--> {cursor}")
        cursor = previous
    steps.reverse()
    return tuple(steps)


def _can_reach_terminal(table: ProtocolTable) -> typing.Set[str]:
    """States with a *declared* path into a terminal state."""
    can: typing.Set[str] = set(table.terminal)
    changed = True
    while changed:
        changed = False
        for src, dsts in table.transitions.items():
            if src not in can and dsts & can:
                can.add(src)
                changed = True
    return can


def _product_events(
    table: ProtocolTable, config: _Config
) -> typing.List[typing.Tuple[_Event, _Config]]:
    state, faults = config
    moves: typing.List[typing.Tuple[_Event, _Config]] = []
    if state not in table.terminal:
        for dst in sorted(table.transitions.get(state, frozenset())):
            if "partition" in faults and dst in NETWORK_BLOCKED_PHASES:
                continue
            moves.append((("advance", dst), (dst, faults)))
    for fault in TRANSIENT_FAULTS:
        if fault not in faults:
            moves.append((("inject", fault), (state, faults | {fault})))
        else:
            moves.append((("heal", fault), (state, faults - {fault})))
    return moves


def _format_config(config: _Config) -> str:
    state, faults = config
    return f"{state}+{{{','.join(sorted(faults))}}}" if faults else state


def check_table(
    table: ProtocolTable,
    evidence: typing.Optional[typing.Set[typing.Tuple[str, str]]] = None,
) -> typing.List[Violation]:
    """All invariant violations of one table (empty list = proven)."""
    violations: typing.List[Violation] = []
    name = table.name
    if not table.terminal:
        violations.append(
            Violation(
                name, "crash_safety",
                "table declares no terminal state: a crash has no abort "
                "phase to close() into",
            )
        )
    reachable, parents = _forward_reach(table)
    for state in sorted(table.states - reachable):
        violations.append(
            Violation(
                name, "unreachable_state",
                f"state {state!r} is declared but unreachable from "
                f"{table.initial!r}",
            )
        )
    for src, dst in _declared_edges(table):
        if src not in reachable:
            violations.append(
                Violation(
                    name, "unreachable_transition",
                    f"transition {src!r} -> {dst!r} can never fire "
                    f"({src!r} is unreachable)",
                )
            )
    for state in sorted(reachable):
        if state in table.terminal:
            continue
        if not table.transitions.get(state, frozenset()):
            violations.append(
                Violation(
                    name, "deadlock",
                    f"state {state!r} is reachable, non-terminal, and has "
                    "no outgoing transitions",
                    trace=_trace_to(parents, state),
                )
            )
    can_terminate = _can_reach_terminal(table)
    for state in sorted(reachable - set(table.terminal)):
        if state not in can_terminate and table.transitions.get(state):
            violations.append(
                Violation(
                    name, "livelock",
                    f"state {state!r} has no declared path to any terminal "
                    "state (only the abort edge escapes)",
                    trace=_trace_to(parents, state),
                )
            )
    violations.extend(_check_fault_product(table))
    if evidence is not None:
        for src, dst in _declared_edges(table):
            if src in reachable and (src, dst) not in evidence:
                violations.append(
                    Violation(
                        name, "dead_transition",
                        f"declared transition {src!r} -> {dst!r} is not "
                        "exercised by any live ProtocolTracker call site",
                    )
                )
    return violations


def _check_fault_product(table: ProtocolTable) -> typing.List[Violation]:
    """Exhaustive (state × fault-set) exploration.

    Verifies every reachable configuration can still reach a terminal
    configuration when partitions block the network-bound phases until
    healed.  The product is tiny (|states| × 2^|faults|) so full
    enumeration is exact, not sampled.
    """
    if not table.terminal:
        return []  # crash_safety already reported; product needs a target
    initial: _Config = (table.initial, frozenset())
    parents: typing.Dict[
        _Config, typing.Tuple[typing.Optional[_Config], str]
    ] = {initial: (None, "start")}
    queue: typing.Deque[_Config] = collections.deque([initial])
    edges: typing.Dict[_Config, typing.List[_Config]] = {}
    while queue:
        config = queue.popleft()
        moves = _product_events(table, config)
        edges[config] = [dst for _, dst in moves]
        for (event, operand), dst in moves:
            if dst not in parents:
                parents[dst] = (config, f"{event}:{operand}")
                queue.append(dst)
    terminal_configs = {
        config for config in parents if config[0] in table.terminal
    }
    can: typing.Set[_Config] = set(terminal_configs)
    changed = True
    while changed:
        changed = False
        for config, dsts in edges.items():
            if config not in can and any(dst in can for dst in dsts):
                can.add(config)
                changed = True
    violations: typing.List[Violation] = []
    for config in sorted(parents, key=_format_config):
        if config in can or config in terminal_configs:
            continue
        steps: typing.List[str] = []
        cursor: typing.Optional[_Config] = config
        while cursor is not None:
            previous, event = parents[cursor]
            label = _format_config(cursor)
            steps.append(label if previous is None else f"--{event}--> {label}")
            cursor = previous
        steps.reverse()
        violations.append(
            Violation(
                table.name, "fault_livelock",
                f"configuration {_format_config(config)} cannot reach any "
                "terminal configuration under the fault product",
                trace=tuple(steps),
            )
        )
    return violations


# -- project-level entry points ----------------------------------------------


def check_protocols(
    modules: typing.Iterable[_ParsedLike],
    project: typing.Optional[Project] = None,
    tables: typing.Optional[typing.Mapping[str, ProtocolTable]] = None,
) -> typing.List[Violation]:
    """Check every registered table against the given source tree."""
    tables = dict(TABLES) if tables is None else dict(tables)
    sites = collect_evidence(modules)
    evidence = live_evidence_pairs(sites, project, tables)
    violations: typing.List[Violation] = []
    for name in sorted(tables):
        violations.extend(check_table(tables[name], evidence.get(name, set())))
    return violations


def table_lines(rel: str, tree: ast.Module) -> typing.Dict[str, int]:
    """Table name -> assignment line in :mod:`repro.protocol`'s source."""
    lines: typing.Dict[str, int] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        if not (
            isinstance(call.func, ast.Name) and call.func.id == "_table"
        ):
            continue
        if call.args and isinstance(call.args[0], ast.Constant):
            if isinstance(call.args[0].value, str):
                lines[call.args[0].value] = node.lineno
    return lines
