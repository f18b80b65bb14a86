"""Monotonic counters."""

from __future__ import annotations


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("_total",)

    def __init__(self) -> None:
        self._total = 0

    @property
    def total(self) -> int:
        return self._total

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._total += amount
