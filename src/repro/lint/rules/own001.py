"""OWN001 — shard-state mutations happen inside an ownership epoch.

The runtime shard sanitizer (``REPRO_SANITIZE=1``,
:mod:`repro.sanitize`) catches an executor touching a shard it does not
own — but only on the interleavings a given run happens to execute.
This rule is the static complement: every shard-state mutation site
(store ``add``/``remove``, ``.data`` subscript writes and dict mutation,
``migrate_shard``) in ``repro/executors/`` must be reachable **only**
through functions that attest to an ownership epoch — starting a
protocol tracker (``SHARD_REASSIGN.tracker()`` et al.) or handing a move
step to ``barrier.synchronize(...)`` (the operator barrier runs it inside
its ``RC_SYNC`` tracker).

The check walks the call graph *upward* from each mutation site.  A
path that hits a caller-less root without passing a single attesting
function is a mutation any code path can reach outside a protocol — the
exact bug class the SHARD_REASSIGN protocol exists to prevent.  Because
this is a for-all-paths guarantee, the reverse walk follows heuristic
edges too: over-approximating the caller set is the safe direction
here (the opposite of SIM001/DET002's must-not-reach traversals).
"""

from __future__ import annotations

import typing

from repro.lint.core import Finding, ProjectRule

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import Project

#: Modules whose functions mutate shard state.
OWNED_PATH_SUFFIXES = ("repro/executors/",)

#: Reverse-walk depth cap: beyond this, assume the path is guarded (a
#: 25-deep unguarded call chain into a mutation would be its own bug).
_DEPTH_CAP = 25


class Own001(ProjectRule):
    name = "OWN001"
    description = "shard-state mutations are guarded by an ownership epoch"

    def check_project(self, project: "Project") -> typing.Iterator[Finding]:
        from repro.lint.graph import (
            ALL_KINDS,
            FACT_OWN_ATTEST,
            FACT_OWN_MUTATION,
            MODULE_SCOPE,
        )
        from repro.lint.taint import rel_matches

        for fid in sorted(project.functions):
            func = project.functions[fid]
            mutations = func.facts_of(FACT_OWN_MUTATION)
            if not mutations:
                continue
            rel = project.rel_of(fid)
            if not rel_matches(rel, OWNED_PATH_SUFFIXES):
                continue
            if func.qualname.rsplit(".", 1)[-1] in (
                "__init__", "__post_init__", "__new__"
            ):
                # Constructor-time population: the object is not shared
                # yet, so ownership is exclusive by construction.
                continue
            if func.has_fact(FACT_OWN_ATTEST):
                continue  # the mutating function opens the epoch itself
            chain = self._unattested_chain(
                project, fid, ALL_KINDS, FACT_OWN_ATTEST, MODULE_SCOPE
            )
            if chain is None:
                continue  # every caller path passes an attesting function
            chain_text = " -> ".join(f.split(":", 1)[1] for f in chain)
            for fact in mutations:
                yield Finding(
                    self.name, rel, fact.line,
                    f"shard-state mutation {fact.detail} is reachable "
                    "without an ownership epoch (no protocol tracker on "
                    f"the path {chain_text})",
                )

    def _unattested_chain(
        self,
        project: "Project",
        fid: str,
        kinds: typing.FrozenSet[str],
        attest_fact: str,
        module_scope: str,
    ) -> typing.Optional[typing.List[str]]:
        """A caller chain root -> ... -> fid with no attestation, if any.

        BFS upward over the caller graph.  Expansion stops at attesting
        functions (every deeper path through them is guarded).  A visited
        function with no callers at all is an unguarded entry point.
        """
        parents: typing.Dict[str, typing.Optional[str]] = {fid: None}
        frontier = [fid]
        depth = 0
        while frontier and depth <= _DEPTH_CAP:
            next_frontier: typing.List[str] = []
            for current in frontier:
                func = project.functions.get(current)
                if func is None:
                    continue
                if current != fid and func.has_fact(attest_fact):
                    continue  # guarded from here upward
                callers = [
                    edge.caller
                    for edge in project.in_edges(current, kinds=kinds)
                    if edge.caller != current
                ]
                if not callers or func.qualname == module_scope:
                    # Caller-less root (or module-level code): rebuild
                    # the downward chain as the counterexample.
                    chain = [current]
                    cursor = parents[current]
                    while cursor is not None:
                        chain.append(cursor)
                        cursor = parents[cursor]
                    return chain
                for caller in callers:
                    if caller not in parents:
                        parents[caller] = current
                        next_frontier.append(caller)
            frontier = next_frontier
            depth += 1
        return None
