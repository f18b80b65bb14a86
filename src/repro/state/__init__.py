"""State management substrate.

Implements the paper's intra-process state-sharing design (§3.2): every
executor process (main or remote) keeps the states of its tasks in one
lightweight in-memory key-value store, so reassigning a shard between two
tasks in the same process needs no state movement at all, while cross-
process reassignment migrates the shard's state over the network.
"""

from repro.state.flat import SpillableKeyStore
from repro.state.shard import ShardState
from repro.state.store import ProcessStateStore, StateError
from repro.state.migration import MigrationClock, migrate_shard, restore_shard
from repro.state.external import ExternalStateService

__all__ = [
    "ExternalStateService",
    "MigrationClock",
    "ProcessStateStore",
    "ShardState",
    "SpillableKeyStore",
    "StateError",
    "migrate_shard",
    "restore_shard",
]
