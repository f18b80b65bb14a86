"""Scheduling strategies: how one scheduler round places the granted cores.

The :class:`~repro.scheduler.scheduler.DynamicScheduler` daemon owns the
round *mechanics* (measure, model, damp, diff, apply); a strategy owns
the placement at one hook, :meth:`~SchedulingStrategy.assign`.

The paradigm picks the strategy (docs/scheduling.md):
:class:`ReactiveStrategy` places by Algorithm 1 (the paper's Elasticutor
scheduler), :class:`NaiveECStrategy` by naive round-robin (the §5.4
ablation).
"""

from __future__ import annotations

import typing

from repro.scheduler.assignment import (
    AssignmentInput,
    NaiveAssigner,
    solve_assignment,
)

AssignmentMatrix = typing.Dict[str, typing.Dict[int, int]]


class SchedulingStrategy:
    """Base strategy: the paper's Algorithm 1 placement."""

    name = "reactive"
    #: From-scratch placement briefly double-holds relocating executors'
    #: cores; strategies doing it need budget slack for the transition.
    needs_transition_slack = False

    def assign(
        self, inp: AssignmentInput
    ) -> typing.Tuple[AssignmentMatrix, float]:
        """Place the granted cores; returns (matrix, φ actually used)."""
        return solve_assignment(inp)


class ReactiveStrategy(SchedulingStrategy):
    """The default: allocate by measured demand, place by Algorithm 1."""


class NaiveECStrategy(SchedulingStrategy):
    """The paper's naive-EC ablation: from-scratch round-robin placement."""

    name = "naive-ec"
    needs_transition_slack = True

    def assign(
        self, inp: AssignmentInput
    ) -> typing.Tuple[AssignmentMatrix, float]:
        return NaiveAssigner().assign(inp), float("inf")
