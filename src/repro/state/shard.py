"""Shard state: the unit of load balancing and migration."""

from __future__ import annotations

import typing

from repro.state.flat import SpillableKeyStore


class ByteTotal:
    """The running ``nominal_bytes`` sum of one store's shards.

    Shared by a :class:`~repro.state.store.ProcessStateStore` and each
    shard it holds, so :meth:`ShardState.resize` keeps it current.  A
    shard refers to this, not to its store: a store-to-shard cycle would
    keep a dropped store's shards alive until the cyclic collector ran.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class ShardState:
    """State of one shard (a mini-partition of an executor's key subspace).

    ``data`` is the per-key store user logic reads and writes through
    :class:`repro.logic.base.StateAccess`.  ``nominal_bytes`` is the
    footprint used by the migration cost model — the paper's experiments
    parameterize shard state size directly (32 KB default, up to 32 MB),
    so the footprint is explicit rather than estimated from ``data``.
    It changes only through :meth:`resize`, which keeps ``total``, the
    :class:`ByteTotal` of the store holding the shard, current.
    """

    __slots__ = ("shard_id", "nominal_bytes", "data", "total")

    def __init__(
        self,
        shard_id: int,
        nominal_bytes: int = 32 * 1024,
        hot_entries: typing.Optional[int] = None,
    ) -> None:
        if nominal_bytes < 0:
            raise ValueError(f"nominal_bytes must be >= 0, got {nominal_bytes}")
        self.shard_id = shard_id
        self.nominal_bytes = nominal_bytes
        self.total: typing.Optional[ByteTotal] = None
        # With ``hot_entries`` the per-key store bounds its live-object
        # tier and spills the LRU excess to pickled bytes — same mapping
        # semantics, bounded memory at million-key scale.
        self.data: typing.MutableMapping[int, typing.Any] = (
            SpillableKeyStore(hot_entries) if hot_entries is not None else {}
        )

    @classmethod
    def fresh(cls, shard_id: int, spec: typing.Any) -> "ShardState":
        """An empty shard sized by an :class:`~repro.topology.OperatorSpec`."""
        return cls(
            shard_id,
            nominal_bytes=spec.shard_state_bytes,
            hot_entries=spec.hot_state_entries,
        )

    def resize(self, nominal_bytes: int) -> None:
        if nominal_bytes < 0:
            raise ValueError(f"nominal_bytes must be >= 0, got {nominal_bytes}")
        if self.total is not None:
            self.total.value += nominal_bytes - self.nominal_bytes
        self.nominal_bytes = nominal_bytes

    def __repr__(self) -> str:
        return (
            f"ShardState(id={self.shard_id}, bytes={self.nominal_bytes}, "
            f"keys={len(self.data)})"
        )
