"""Rule registry for ``repro lint``."""

from __future__ import annotations

import typing

from repro.lint.rules.det001 import Det001
from repro.lint.rules.hot001 import Hot001
from repro.lint.rules.proto001 import Proto001
from repro.lint.rules.tel001 import Tel001

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.core import Rule

#: Every shipped rule, in catalog order.  Factories, not instances —
#: rules may keep per-run state.
ALL_RULES: typing.Tuple[typing.Callable[[], "Rule"], ...] = (
    Det001, Hot001, Tel001, Proto001,
)

__all__ = [
    "ALL_RULES",
    "Det001",
    "Hot001",
    "Proto001",
    "Tel001",
]
