"""Fixture: shard-state mutation outside any ownership epoch (OWN001).

``hot_path_steal`` moves a shard between stores with no protocol
tracker anywhere on its (absent) caller chain;
``guarded_steal`` performs the same mutation under a tracker and stays
clean, as does ``_barrier_move`` (its only caller hands it to an operator
barrier's ``synchronize``) and constructor-time population.
"""

from repro.protocol import SHARD_REASSIGN


class ShardStore:
    __slots__ = ("data",)

    def __init__(self):
        self.data = {}


class Rebalancer:
    __slots__ = ("stores", "barrier")

    def __init__(self, stores, barrier):
        self.stores = stores
        self.barrier = barrier

    def hot_path_steal(self, shard, src, dst):
        self.stores[dst].add(shard)
        self.stores[src].remove(shard)

    def guarded_steal(self, shard, src, dst):
        proto = SHARD_REASSIGN.tracker()
        try:
            self.stores[dst].add(shard)
            self.stores[src].remove(shard)
            proto.advance("pause")
        finally:
            proto.close("aborted")

    def barrier_steal(self, shard, src, dst, span):
        yield from self.barrier.synchronize(self._barrier_move(shard, src, dst), span)

    def _barrier_move(self, shard, src, dst):
        self.stores[dst].add(shard)
        self.stores[src].remove(shard)
        yield
