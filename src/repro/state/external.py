"""External distributed key-value state (the design the paper rejects).

Paper §3.2: "external distributed key-value store, such as RAMCloud, can
be used to provide a unified state access interface to all tasks, thus
avoiding the necessity of state migration in shard reassignments.
However, this method sacrifices the efficiency of task execution, because
accessing states in external storage requires state serialization and
network transfer."

:class:`ExternalStateService` models that store: shard state lives on
dedicated storage nodes, and every batch's state access pays
serialization plus a network round trip.  Shard reassignment becomes
free (no migration — the state never moves), which is exactly the
trade-off the ablation benchmark quantifies.
"""

from __future__ import annotations

import typing
import zlib

from repro.cluster.network import NetworkFabric, TransferPurpose
from repro.sim import Environment
from repro.state.shard import ShardState
from repro.topology.keys import stable_hash


class ExternalStateService:
    """A remote KV store hosting shard states on storage nodes."""

    #: CPU cost of (de)serializing one state access payload.
    SERIALIZATION_SECONDS = 20e-6

    __slots__ = (
        "env", "fabric", "storage_nodes", "access_bytes", "_shards", "accesses",
    )

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        storage_nodes: typing.Sequence[int],
        access_bytes: int = 512,
    ) -> None:
        if not storage_nodes:
            raise ValueError("need at least one storage node")
        if access_bytes < 0:
            raise ValueError("access_bytes must be >= 0")
        self.env = env
        self.fabric = fabric
        self.storage_nodes = list(storage_nodes)
        self.access_bytes = access_bytes
        self._shards: typing.Dict[typing.Tuple[str, int], ShardState] = {}
        self.accesses = 0

    def register_shard(self, owner: str, shard: ShardState) -> None:
        key = (owner, shard.shard_id)
        if key in self._shards:
            raise ValueError(f"shard {key} already registered")
        self._shards[key] = shard

    def storage_node_for(self, owner: str, shard_id: int) -> int:
        # Builtin ``hash`` of a str is salted per process; this placement
        # must not depend on PYTHONHASHSEED.
        salt = zlib.crc32(owner.encode())
        return self.storage_nodes[
            stable_hash(shard_id, salt) % len(self.storage_nodes)
        ]

    def access(
        self, owner: str, shard_id: int, from_node: int
    ) -> typing.Generator:
        """Fetch-and-update round trip for one batch's state access.

        Simulation process body; returns the :class:`ShardState` so logic
        can operate on it (the data itself is held authoritatively by the
        service — tasks never keep local copies).
        """
        key = (owner, shard_id)
        try:
            shard = self._shards[key]
        except KeyError:
            raise ValueError(f"shard {key} not registered") from None
        self.accesses += 1
        storage_node = self.storage_node_for(owner, shard_id)
        yield self.env.timeout(self.SERIALIZATION_SECONDS)
        # Request to the store ...
        yield self.fabric.transfer(
            from_node, storage_node, self.access_bytes,
            purpose=TransferPurpose.REMOTE_TASK,
        )
        # ... and the state payload back.
        yield self.fabric.transfer(
            storage_node, from_node, self.access_bytes,
            purpose=TransferPurpose.REMOTE_TASK,
        )
        yield self.env.timeout(self.SERIALIZATION_SECONDS)
        return shard
