"""Per-process shared state stores."""

from __future__ import annotations

import typing

from repro.state.shard import ByteTotal, ShardState


class StateError(RuntimeError):
    """Raised on invalid shard-store operations (double add, missing shard)."""

    __slots__ = ()


class ProcessStateStore:
    """The in-memory KV store of one executor process on one node.

    All tasks hosted by the process access shard state through this store;
    that is precisely what makes same-process shard reassignment free
    (paper §3.2).  An executor has one store on its local node plus one per
    remote node where it runs remote tasks.
    """

    __slots__ = ("executor_name", "node_id", "_shards", "_total")

    def __init__(self, executor_name: str, node_id: int) -> None:
        self.executor_name = executor_name
        self.node_id = node_id
        self._shards: typing.Dict[int, ShardState] = {}
        #: Sum of the held shards' ``nominal_bytes``, kept by ``add``,
        #: ``remove`` and :meth:`ShardState.resize`.
        self._total = ByteTotal()

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shards

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> typing.Tuple[int, ...]:
        return tuple(self._shards)

    def add(self, shard: ShardState) -> None:
        if shard.shard_id in self._shards:
            raise StateError(
                f"shard {shard.shard_id} already in store "
                f"({self.executor_name}@node{self.node_id})"
            )
        self._shards[shard.shard_id] = shard
        shard.total = self._total
        self._total.value += shard.nominal_bytes

    def get(self, shard_id: int) -> ShardState:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise StateError(
                f"shard {shard_id} not in store "
                f"({self.executor_name}@node{self.node_id})"
            ) from None

    def remove(self, shard_id: int) -> ShardState:
        try:
            shard = self._shards.pop(shard_id)
        except KeyError:
            raise StateError(
                f"shard {shard_id} not in store "
                f"({self.executor_name}@node{self.node_id})"
            ) from None
        self._total.value -= shard.nominal_bytes
        if shard.total is self._total:
            shard.total = None
        return shard

    def total_bytes(self) -> int:
        """Aggregate state size s_j contribution of this store."""
        return self._total.value
