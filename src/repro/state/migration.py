"""Shard state migration across processes.

Same-node reassignments are free thanks to intra-process state sharing.
Cross-node migration pays serialization, a tagged network transfer, and
deserialization — the costs that dominate Figure 9b of the paper.  Crash
recovery restores a shard the same way, or rebuilds it when its only
replica died.
"""

from __future__ import annotations

import typing

from repro.cluster.network import NetworkFabric, TransferPurpose
from repro.sim import Environment
from repro.state.shard import ShardState
from repro.state.store import ProcessStateStore


class MigrationClock:
    """Cost constants for the migration path.

    ``serialization_bytes_per_s`` models CPU-side (de)serialization — paid
    on each side of a cross-node move.  Tuned so that a 32 KB shard moves
    inter-node in a couple of milliseconds and 32 MB becomes network-bound,
    matching the regimes of the paper's Figure 9b.
    """

    __slots__ = ("serialization_bytes_per_s",)

    def __init__(self, serialization_bytes_per_s: float = 2e9) -> None:
        if serialization_bytes_per_s <= 0:
            raise ValueError("serialization rate must be positive")
        self.serialization_bytes_per_s = serialization_bytes_per_s

    def serialization_delay(self, nbytes: int) -> float:
        return nbytes / self.serialization_bytes_per_s


def migrate_shard(
    env: Environment,
    fabric: NetworkFabric,
    src: ProcessStateStore,
    dst: ProcessStateStore,
    shard_id: int,
    clock: typing.Optional[MigrationClock] = None,
) -> typing.Generator:
    """Move one shard's state from ``src`` store to ``dst`` store.

    A simulation process body (use with ``yield from`` or
    ``env.process``).  Returns the migration duration in seconds.
    Same-store calls are invalid; same-node different-store calls cannot
    happen in this system (one store per executor per node).
    """
    if src is dst:
        raise ValueError("migrate_shard called with identical src and dst stores")
    clock = clock or MigrationClock()
    started = env.now
    shard = src.remove(shard_id)
    if src.node_id != dst.node_id:
        serialize = clock.serialization_delay(shard.nominal_bytes)
        if serialize > 0:
            yield env.timeout(serialize)
        yield fabric.transfer(
            src.node_id,
            dst.node_id,
            shard.nominal_bytes,
            purpose=TransferPurpose.STATE_MIGRATION,
        )
        if serialize > 0:
            yield env.timeout(serialize)  # deserialization on the receiver
    dst.add(shard)
    return env.now - started


def restore_shard(
    env: Environment,
    fabric: NetworkFabric,
    replicas: typing.Mapping[int, ProcessStateStore],
    dst: ProcessStateStore,
    shard_id: int,
    spec: typing.Any,
    stats: typing.Any,
    rebuild_rate: float,
    clock: typing.Optional[MigrationClock] = None,
) -> typing.Generator:
    """Make ``shard_id``'s state present in ``dst`` after a crash.

    A simulation process body: migrate the shard from the first store of
    ``replicas`` (by node id) holding it, else — the only replica died —
    rebuild a fresh one at ``rebuild_rate`` bytes/s.  ``stats`` (a
    :class:`repro.metrics.recovery.RecoveryStats`) counts either cost.
    """
    if shard_id in dst:
        return
    for node_id in sorted(replicas):
        src = replicas[node_id]
        if shard_id in src:
            nbytes = src.get(shard_id).nominal_bytes
            yield from migrate_shard(env, fabric, src, dst, shard_id, clock)
            stats.bytes_remigrated.add(nbytes)
            return
    shard = ShardState.fresh(shard_id, spec)
    if rebuild_rate > 0 and shard.nominal_bytes:
        yield env.timeout(shard.nominal_bytes / rebuild_rate)
    dst.add(shard)
    stats.shards_rebuilt.add(1)
    stats.state_bytes_rebuilt.add(shard.nominal_bytes)
