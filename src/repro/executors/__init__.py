"""Executor implementations for the three execution paradigms.

- :class:`ElasticExecutor` — the paper's contribution (§3): a lightweight
  distributed subsystem owning a fixed key subspace, scaling across CPU
  cores via tasks, with intra-executor shard balancing and the consistent
  shard-reassignment protocol.
- :class:`StaticExecutor` — the static paradigm: one core, one task, no
  elasticity (default Storm).
- :class:`RCExecutor` / :class:`RCOperatorManager` — the resource-centric
  baseline: single-core executors plus operator-level key repartitioning
  with global synchronization.

All three run one data path: every :class:`Task` is the compiled task
loop of :mod:`repro.executors.task` and every executor's emitter the
compiled emitter loop of :mod:`repro.executors.group`.  The paradigms
differ only in how they move keys.
"""

from repro.executors.balancer import BalanceMove, ShardBalancer
from repro.executors.elastic import ElasticExecutor
from repro.executors.gate import OperatorGate
from repro.executors.group import ElasticGroup, RCGroup, SourceInstance
from repro.executors.rc import RCExecutor, RCOperatorManager
from repro.executors.static import StaticExecutor
from repro.executors.stats import ExecutorMetrics, ReassignmentStats
from repro.executors.task import StopSignal, Task

__all__ = [
    "BalanceMove",
    "ElasticExecutor",
    "ElasticGroup",
    "ExecutorMetrics",
    "OperatorGate",
    "RCExecutor",
    "RCGroup",
    "RCOperatorManager",
    "ReassignmentStats",
    "ShardBalancer",
    "SourceInstance",
    "StaticExecutor",
    "StopSignal",
    "Task",
]
