"""``repro lint`` — AST-based invariant checks for this codebase.

The simulator's guarantees (bit-identical event ordering, deterministic
fault replay, the labeling-tuple reassignment protocol) are invariants of
*how the code is written*, not just of what the tests observe.  This
package makes the writing rules mechanical:

========  ==============================================================
Rule      Invariant
========  ==============================================================
DET001    No wall-clock / global-RNG / entropy / set-ordering
          nondeterminism inside ``src/repro`` (outside the allowlist).
HOT001    Classes in hot modules declare ``__slots__`` and never grow
          attributes outside ``__init__``.
TEL001    Every telemetry span is closed on all paths, and no expensive
          argument construction reaches a bus call unguarded by the
          ``NULL_BUS`` fast path.
SUP001    Framework rule: every inline suppression carries a
          justification (not suppressible).
SUP002    Framework rule: every justified suppression still silences a
          finding; stale waivers must be deleted (not suppressible).
========  ==============================================================

Each project rule catches at least one real bug that nothing else
catches: ``tests/mutants.py`` scores each rule, the test suite and the
``REPRO_SANITIZE=1`` sanitizer against a set of this repository's real
bugs (table in ``docs/static-analysis.md``).

Findings are suppressed inline with ``# repro: allow[RULE]: reason`` on
the offending line; the reason is mandatory.  See
``docs/static-analysis.md`` for the full catalog and policy.
"""

from __future__ import annotations

from repro.lint.core import (
    Finding,
    ParsedModule,
    Rule,
    run_lint,
)
from repro.lint.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "ParsedModule",
    "Rule",
    "run_lint",
]
