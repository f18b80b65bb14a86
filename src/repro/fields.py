"""The one load-time field check.

Config classes state their numeric fields' rules as data (field name ->
:class:`Rule`) and run them through :func:`check_fields` when built; dict
forms find their unknown keys through :func:`unknown_keys`.  A value that
breaks its rule raises when the object is built, and the message starts
with the field's name.
"""

from __future__ import annotations

import math
import numbers
import typing


class Rule(typing.NamedTuple):
    """An integer, or any finite real; and a lower bound (a key of ``_BOUNDS``)."""

    integer: bool
    bound: str


_BOUNDS = {
    "positive": lambda value: value > 0,
    ">= 0": lambda value: value >= 0,
    ">= 1": lambda value: value >= 1,
}
POSITIVE = Rule(False, "positive")
NON_NEGATIVE = Rule(False, ">= 0")
COUNT = Rule(True, ">= 1")  # a number of things
INDEX = Rule(True, ">= 0")  # an index, a seed, a period


def check_number(
    name: str, value: typing.Any, rule: Rule, error: typing.Type[ValueError] = ValueError
) -> typing.Any:
    """``value`` if it keeps ``rule``, else ``error`` naming ``name``.
    Bools are neither integers nor numbers here."""
    if rule.integer:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")
    elif (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise error(f"{name} must be a finite number, got {value!r}")
    if not _BOUNDS[rule.bound](value):
        raise error(f"{name} must be {rule.bound}, got {value!r}")
    return value


def check_fields(
    owner: typing.Any,
    rules: typing.Mapping[str, Rule],
    error: typing.Type[ValueError] = ValueError,
) -> None:
    """:func:`check_number` on each attribute of ``owner`` ``rules`` names."""
    for name, rule in rules.items():
        check_number(name, getattr(owner, name), rule, error)


def check_window(duration: typing.Any, warmup: typing.Any) -> None:
    """``ValueError`` naming the argument unless ``duration`` is positive
    and ``warmup`` lies in ``[0, duration)``."""
    check_number("duration", duration, POSITIVE)
    check_number("warmup", warmup, NON_NEGATIVE)
    if not warmup < duration:
        raise ValueError(f"warmup must lie in [0, duration), got {warmup}")


def unknown_keys(
    kind: str,
    payload: typing.Any,
    known: typing.Collection[str],
    error: typing.Type[ValueError] = ValueError,
) -> typing.List[str]:
    """The keys of ``payload`` outside ``known``, sorted; ``error`` naming
    ``kind`` if ``payload`` is not a mapping.  Callers word the unknown-key
    message."""
    if not isinstance(payload, typing.Mapping):
        raise error(f"{kind} must be an object, got {payload!r}")
    return sorted(str(key) for key in payload if key not in known)
