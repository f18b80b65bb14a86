"""Outcome tests for the one shard move of paper §3.3.

Balancing, shrinking and crash re-homing all run
``ElasticExecutor._move_shard``: pause routing, drain, move the state,
update routing.  The ``reassign`` span's marks are the one record of
those phases; these tests check them next to what the move must achieve.
"""

from repro.cluster import Cluster
from repro.executors import ElasticExecutor
from repro.faults.recovery import DeadLetterReaper
from repro.logic import SyntheticLogic
from repro.metrics.recovery import RecoveryStats
from repro.sim import Environment
from repro.telemetry.events import EventBus
from repro.topology import OperatorSpec


class TestOneShardMove:
    def test_rehoming_restores_and_routes_every_orphan(self):
        # A live move onto a new core, then a crash that orphans the same
        # shards: the survivors restore and re-route each one.
        env = Environment()
        env.telemetry = EventBus(env)
        cluster = Cluster(env, num_nodes=2, cores_per_node=4)
        spec = OperatorSpec("op", logic=SyntheticLogic(), num_executors=1,
                            shards_per_executor=8)
        executor = ElasticExecutor(env, cluster, spec, index=0, local_node=0)
        executor.connect([], sink_recorder=lambda batch, now: None)
        executor.start(initial_cores=1)
        stats = RecoveryStats()

        def script():
            yield from executor.add_core(1)
            victim = next(t for t in executor.tasks.values() if t.node_id == 1)
            orphans = executor.crash_tasks([victim], DeadLetterReaper(env, stats))
            yield from executor.rehome_orphans(orphans, 1, stats, rebuild_rate=1e9)
            return orphans

        proc = env.process(script())
        env.run(until=5.0)
        orphans = proc.value
        assert len(orphans) == 4  # spread_by_count onto the new core
        assert stats.shards_rebuilt.total == len(orphans)
        live = set(executor.tasks.values())
        for shard in orphans:
            entry = executor.routing.entry(shard)
            assert entry.task in live and not entry.task.stopped
            assert not entry.paused
        # An orphan's move is a step of the caller's span; each live move
        # has its own, marked once per phase in protocol order.
        moves = env.telemetry.spans_named("reassign")
        assert len(moves) == len(orphans)
        for span in moves:
            assert span.attrs["status"] == "ok"
            assert [label for label, _ in span.marks] == [
                "pause", "drain", "migration", "routing_update",
            ]
