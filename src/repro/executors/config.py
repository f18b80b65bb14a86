"""Tunables of the executor runtime.

The constants are calibrated so the simulated prototype reproduces the
paper's reassignment-time regimes (Figure 8: ~0.3 ms intra-node and a
few ms inter-node for Elasticutor) and provides Storm-like buffering.
"""

from __future__ import annotations

import dataclasses

#: Capacity (batches) of an executor's input queue.
INPUT_QUEUE_CAPACITY = 16
#: Capacity (batches) of each task's pending queue.
TASK_QUEUE_CAPACITY = 4
#: Capacity (batches) of an executor's emitter queue.
EMITTER_QUEUE_CAPACITY = 8
#: Max in-flight network sends per sender (pipelining window).
SEND_WINDOW = 32
#: Wire size of control messages (labels, pause/resume commands).
CONTROL_BYTES = 64
#: Imbalance threshold θ for the shard balancer.
THETA = 1.2
#: Rebalance only when δ exceeds θ by this factor — hysteresis against
#: shard-load sampling noise (each move pauses a shard briefly).
BALANCE_TRIGGER_MARGIN = 1.1
#: Fixed bookkeeping overhead per shard reassignment (seconds).
#: Covers routing-table updates and control handling in the prototype.
REASSIGNMENT_OVERHEAD = 1e-3
#: One-time cost of spawning a remote process on a new node (seconds).
REMOTE_PROCESS_SPAWN_SECONDS = 20e-3
#: EWMA blending factor for per-shard load snapshots.
LOAD_SMOOTHING = 0.5


@dataclasses.dataclass(slots=True)
class ExecutorConfig:
    """The executor settings an experiment varies."""

    #: How often the intra-executor balancer re-plans (seconds).
    balance_interval: float = 1.0
    #: Ablation: when True, shard reassignment always migrates state, even
    #: between tasks in the same process (serialization cost, no network).
    #: Disables the paper's intra-process state-sharing optimization.
    disable_state_sharing: bool = False
