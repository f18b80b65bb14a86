"""The global dynamic scheduler (paper §4).

Pipeline per scheduling round:

1. Measure per-executor performance metrics (λ_j, µ_j, s_j, data rates).
2. Model the topology as a Jackson network of M/M/k queues and derive the
   core demand k_j per executor with a greedy latency-target allocation
   (:class:`GreedyAllocator`, the DRS model of [Fu et al., ICDCS'15]).
3. Map physical cores to executors with Algorithm 1
   (:func:`greedy_assignment`): minimize state-migration cost subject to
   node capacity and a computation-locality constraint for data-intensive
   executors (threshold φ, doubled until feasible).
4. Apply the new assignment by growing/shrinking elastic executors.

:class:`NaiveAssigner` implements the paper's naive-EC ablation: the same
k_j allocation but placement that ignores migration cost and locality.

Steps 2 and 3 are strategy hooks (:mod:`repro.scheduler.strategies`):
besides the reactive default and the naive-EC ablation, the
``predictive`` strategy allocates against Holt forecast demand
and places by dominant remaining resource
(:func:`~repro.scheduler.predictive.drr_assignment`; docs/scheduling.md).
"""

from repro.scheduler.model import JacksonNetworkModel, MMKModel, erlang_c
from repro.scheduler.allocation import Allocation, ExecutorDemand, GreedyAllocator
from repro.scheduler.assignment import (
    AssignmentFailed,
    AssignmentInput,
    NaiveAssigner,
    greedy_assignment,
    solve_assignment,
)
from repro.scheduler.predictive import drr_assignment
from repro.scheduler.scheduler import DynamicScheduler, SchedulerReport
from repro.scheduler.strategies import (
    STRATEGY_NAMES,
    NaiveECStrategy,
    PredictiveStrategy,
    ReactiveStrategy,
    SchedulingStrategy,
    make_strategy,
)

__all__ = [
    "Allocation",
    "AssignmentFailed",
    "AssignmentInput",
    "DynamicScheduler",
    "ExecutorDemand",
    "GreedyAllocator",
    "JacksonNetworkModel",
    "MMKModel",
    "NaiveAssigner",
    "NaiveECStrategy",
    "PredictiveStrategy",
    "ReactiveStrategy",
    "STRATEGY_NAMES",
    "SchedulerReport",
    "SchedulingStrategy",
    "drr_assignment",
    "erlang_c",
    "greedy_assignment",
    "make_strategy",
    "solve_assignment",
]
