"""Checked-in transition tables for the control-plane state machines.

Every multi-step protocol in the reproduction — the consistent shard
reassignment of paper §3.3, the RC baseline's global synchronization, and
the fault-recovery sequences — advances through a fixed set of phases.
Historically those phases existed only as telemetry span marks; nothing
stopped a refactor from, say, updating the routing table before the
labeling-tuple drain finished.  This module makes the phase graphs
explicit data:

- The runtime walks a :class:`ProtocolTracker` through its phases and
  raises :class:`ProtocolError` on any transition the table does not
  declare.
- The ``PROTO001`` rule of ``repro lint`` (see
  :mod:`repro.lint.rules.proto001`) imports the same tables and verifies
  statically that the ``advance()`` call sequences in
  ``src/repro/executors/`` and ``src/repro/faults/recovery.py`` only use
  declared states and edges.

- :class:`ProtocolTable` checks each table's shape when it is built, so
  a table that cannot terminate fails at import.  PROTO001 additionally
  reports a declared edge that no call site walks.

The tables are therefore the single source of truth: changing a protocol
means changing its table here, and both the runtime assertion and the
static checker follow automatically.
"""

from __future__ import annotations

import typing


class ProtocolError(AssertionError):
    """An undeclared state-machine transition was attempted at runtime."""

    __slots__ = ()


class ProtocolTable:
    """The declared phase graph of one control-plane protocol.

    ``transitions`` maps each state to the set of states reachable from
    it.  ``terminal`` states may be entered from *any* state (they model
    aborts/completions that can interrupt the protocol at any phase, e.g.
    a crash landing in a ``finally`` block) and allow no further
    transitions.

    Construction rejects (``ValueError``) a table with no terminal state,
    an unreachable state, a reachable non-terminal state with no outgoing
    edge, or a state with no declared path to a terminal one (only the
    abort edge would end it).  Each message names the state and the path
    that reaches it.
    """

    __slots__ = ("name", "initial", "transitions", "terminal", "states")

    def __init__(
        self,
        name: str,
        initial: str,
        transitions: typing.Mapping[str, typing.FrozenSet[str]],
        terminal: typing.FrozenSet[str],
    ) -> None:
        self.name = name
        self.initial = initial
        self.transitions: typing.Dict[str, typing.FrozenSet[str]] = {
            state: frozenset(nexts) for state, nexts in transitions.items()
        }
        self.terminal = frozenset(terminal)
        states = set(self.transitions) | self.terminal | {initial}
        for nexts in self.transitions.values():
            states |= nexts
        self.states: typing.FrozenSet[str] = frozenset(states)
        self._check_shape()

    def _check_shape(self) -> None:
        """Raise ``ValueError`` on a table no protocol run could finish."""
        if not self.terminal:
            raise ValueError(
                f"protocol {self.name!r}: no terminal state, so a crash in "
                f"{self.initial!r} (or any later state) has nothing to "
                "close() into"
            )
        # Declared-edge paths from the initial state; terminal states are
        # also enterable from every reachable state (the close() edge).
        paths = {self.initial: (self.initial,)}
        frontier = [self.initial]
        while frontier:
            state = frontier.pop(0)
            nexts = sorted(self.transitions.get(state, ()))
            for nxt in [*nexts, *sorted(self.terminal)]:
                if nxt not in paths:
                    paths[nxt] = paths[state] + (nxt,)
                    frontier.append(nxt)
        for state in sorted(self.states - set(paths)):
            raise ValueError(
                f"protocol {self.name!r}: state {state!r} is unreachable "
                f"from {self.initial!r}"
            )
        finishes = set(self.terminal)
        grew = True
        while grew:
            grew = False
            for state, nexts in self.transitions.items():
                if state not in finishes and nexts & finishes:
                    finishes.add(state)
                    grew = True
        for state in sorted(self.states - self.terminal):
            if not self.transitions.get(state):
                raise ValueError(
                    f"protocol {self.name!r}: state {state!r} is not "
                    "terminal and has no outgoing transition (path: "
                    f"{' -> '.join(paths[state])})"
                )
        for state in sorted(self.states - finishes):
            raise ValueError(
                f"protocol {self.name!r}: state {state!r} has no declared "
                f"path to a terminal state (path: {' -> '.join(paths[state])})"
            )

    def allows(self, src: str, dst: str) -> bool:
        """True when the ``src -> dst`` edge is declared."""
        if dst in self.terminal:
            return True
        return dst in self.transitions.get(src, frozenset())

    def tracker(self) -> "ProtocolTracker":
        """A fresh runtime walker positioned at the initial state."""
        return ProtocolTracker(self)

    def __repr__(self) -> str:
        return f"ProtocolTable({self.name!r}, states={sorted(self.states)})"


class ProtocolTracker:
    """Walks one protocol instance through its table at runtime.

    ``advance`` is called at each phase boundary (next to the telemetry
    ``span.mark``) and raises :class:`ProtocolError` on an undeclared
    transition.  Terminal states are idempotent so trackers are safe to
    close in ``finally`` blocks, mirroring ``Span.finish``.
    """

    __slots__ = ("table", "state", "_history")

    def __init__(self, table: ProtocolTable) -> None:
        self.table = table
        self.state = table.initial
        self._history: typing.List[str] = [table.initial]

    @property
    def finished(self) -> bool:
        return self.state in self.table.terminal

    @property
    def history(self) -> typing.Tuple[str, ...]:
        return tuple(self._history)

    def advance(self, state: str) -> "ProtocolTracker":
        """Move to ``state``; raises :class:`ProtocolError` if undeclared."""
        if state == self.state and state in self.table.terminal:
            return self  # idempotent close (finally-block safety)
        if state not in self.table.states:
            raise ProtocolError(
                f"protocol {self.table.name!r}: unknown state {state!r} "
                f"(history: {' -> '.join(self._history)})"
            )
        if self.finished:
            raise ProtocolError(
                f"protocol {self.table.name!r}: transition to {state!r} "
                f"after terminal {self.state!r} "
                f"(history: {' -> '.join(self._history)})"
            )
        if not self.table.allows(self.state, state):
            raise ProtocolError(
                f"protocol {self.table.name!r}: undeclared transition "
                f"{self.state!r} -> {state!r} "
                f"(history: {' -> '.join(self._history)})"
            )
        self.state = state
        self._history.append(state)
        return self

    def close(self, state: str) -> "ProtocolTracker":
        """Enter terminal ``state`` unless already finished.

        The ``finally``-block counterpart of :meth:`advance`: a protocol
        that already completed (``done``) ignores the close, exactly like
        ``Span.finish`` ignores its second call.
        """
        if state not in self.table.terminal:
            raise ProtocolError(
                f"protocol {self.table.name!r}: close() requires a "
                f"terminal state, got {state!r}"
            )
        if self.finished:
            return self
        return self.advance(state)


def _table(
    name: str,
    initial: str,
    edges: typing.Mapping[str, typing.Iterable[str]],
    terminal: typing.Iterable[str],
) -> ProtocolTable:
    return ProtocolTable(
        name,
        initial,
        {state: frozenset(nexts) for state, nexts in edges.items()},
        frozenset(terminal),
    )


#: The one shard move (paper §3.3) of balancing, shrinking and crash
#: re-homing: pause routing, drain (a labeling-tuple chase from a live
#: source; nothing to chase for a shard orphaned by a crash), migrate or
#: restore state, update the routing table.  ``aborted`` may interrupt any
#: phase (crash recovery owns the shard afterwards).
SHARD_REASSIGN = _table(
    "shard_reassign",
    "start",
    {
        "start": ["pause"],
        "pause": ["drain"],
        "drain": ["migration"],
        "migration": ["routing_update"],
        "routing_update": ["done"],
    },
    ["done", "aborted"],
)

#: The RC global synchronization — operator-level repartitioning, RC crash
#: recovery and hybrid split/merge alike: pause every upstream, wait for
#: the in-flight ledger to drain, move state, push new routing tables to
#: all upstreams.  That recovery pays the same round as a repartitioning
#: *is* the baseline's cost.  ``stalled`` is recovery's escape hatch when
#: no capacity exists anywhere after the drain.  (``SHARD_REASSIGN`` has
#: the same phases but stays separate: a per-shard move never stalls.)
RC_SYNC = _table(
    "rc_sync",
    "start",
    {
        "start": ["pause"],
        "pause": ["drain"],
        "drain": ["migration", "stalled"],
        "migration": ["routing_update"],
        "routing_update": ["done"],
    },
    ["done", "aborted", "stalled"],
)

#: Fault-coordinator recovery (node crash and core failure alike):
#: destruction is immediate, detection waits the configured delay, then
#: the paradigm's own repair machinery runs.  ``stalled`` models a
#: restart that found no capacity anywhere.
FAULT_RECOVERY = _table(
    "fault_recovery",
    "start",
    {
        "start": ["destroyed"],
        "destroyed": ["detected"],
        "detected": ["repaired", "stalled"],
        "repaired": ["done"],
    },
    ["done", "aborted", "stalled"],
)

#: All checked-in tables, keyed by name — the registry the PROTO001
#: checker (and tooling like docs generation) iterates.
TABLES: typing.Dict[str, ProtocolTable] = {
    table.name: table
    for table in (
        SHARD_REASSIGN,
        RC_SYNC,
        FAULT_RECOVERY,
    )
}
