"""Elasticutor: rapid elasticity for realtime stateful stream processing.

A full reproduction of Wang et al., SIGMOD 2019, on a deterministic
discrete-event simulation substrate (see DESIGN.md for the system map and
EXPERIMENTS.md for paper-vs-measured results).

Public API highlights:

- :class:`StreamSystem` / :class:`SystemConfig` / :class:`Paradigm` -- run a
  topology under the static, resource-centric, Elasticutor or naive-EC
  paradigm and measure throughput/latency.
- :class:`TopologyBuilder` -- declare operator DAGs (the Storm-like API).
- :class:`ElasticExecutor` -- the paper's elastic executor, usable directly
  for single-executor experiments.
- :class:`DynamicScheduler` -- the model-based core scheduler.
- :class:`MicroBenchmarkWorkload` / :class:`SSEWorkload` -- the paper's two
  workloads.
"""

import typing

from repro.executors import ElasticExecutor, RCOperatorManager, StaticExecutor
from repro.executors.config import ExecutorConfig
from repro.faults import FaultEvent, FaultKind, FaultSpec
from repro.logic import (
    OperatorLogic,
    OrderBook,
    StateAccess,
    SyntheticLogic,
    TransactorLogic,
)
from repro.runtime import Paradigm, StreamSystem, SystemConfig, SystemResult
from repro.scheduler import DynamicScheduler, GreedyAllocator
from repro.topology import KeySpace, Topology, TopologyBuilder, TupleBatch
from repro.workloads import (
    BurstEvent,
    HotspotBurst,
    MicroBenchmarkWorkload,
    SSEWorkload,
    ZipfKeyDistribution,
)

__version__ = "1.0.0"

#: Loaded on first use (PEP 562): ``repro.sweep`` pulls in
#: ``concurrent.futures`` and ``multiprocessing``, which only sweeps and
#: the CLI need.
_SWEEP_NAMES = frozenset({"SweepRunner", "SweepSpec", "TrialConfig"})


def __getattr__(name: str) -> typing.Any:
    if name in _SWEEP_NAMES:
        from repro import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BurstEvent",
    "DynamicScheduler",
    "ElasticExecutor",
    "ExecutorConfig",
    "FaultEvent",
    "FaultKind",
    "FaultSpec",
    "GreedyAllocator",
    "HotspotBurst",
    "KeySpace",
    "MicroBenchmarkWorkload",
    "OperatorLogic",
    "OrderBook",
    "Paradigm",
    "RCOperatorManager",
    "SSEWorkload",
    "StateAccess",
    "StaticExecutor",
    "StreamSystem",
    "SweepRunner",
    "SweepSpec",
    "SyntheticLogic",
    "SystemConfig",
    "SystemResult",
    "Topology",
    "TrialConfig",
    "TopologyBuilder",
    "TupleBatch",
    "ZipfKeyDistribution",
]
