"""Tests for the checked-in protocol transition tables and tracker."""

import pytest

from repro.cluster import Cluster
from repro.executors import ElasticExecutor
from repro.faults.recovery import DeadLetterReaper
from repro.logic import SyntheticLogic
from repro.metrics.recovery import RecoveryStats
from repro.protocol import (
    FAULT_RECOVERY,
    RC_SYNC,
    SHARD_REASSIGN,
    TABLES,
    ProtocolError,
    _table,
)
from repro.sim import Environment
from repro.topology import OperatorSpec


class TestTables:
    def test_registry_is_complete(self):
        assert set(TABLES) == {"shard_reassign", "rc_sync", "fault_recovery"}
        for name, table in TABLES.items():
            assert table.name == name
            assert table.initial in table.states
            assert table.terminal <= table.states

    def test_declared_transitions_allowed(self):
        assert SHARD_REASSIGN.allows("start", "pause")
        assert SHARD_REASSIGN.allows("pause", "drain")
        assert not SHARD_REASSIGN.allows("pause", "routing_update")

    def test_only_the_global_sync_can_stall(self):
        # RC recovery parks in ``stalled`` when the drain finds no capacity;
        # a per-shard reassignment always has its source to fall back to.
        assert RC_SYNC.transitions["drain"] == {"migration", "stalled"}
        assert "stalled" in RC_SYNC.terminal
        assert "stalled" not in SHARD_REASSIGN.states

    def test_terminal_reachable_from_anywhere(self):
        for table in TABLES.values():
            for state in table.states:
                for terminal in table.terminal:
                    assert table.allows(state, terminal)

    @pytest.mark.parametrize(
        "edges, terminal, problem",
        [
            ({"start": ["a"], "a": ["start"]}, [], "no terminal state"),
            (
                {"start": ["done"], "island": ["done"]}, ["done"],
                "'island' is unreachable",
            ),
            (
                {"start": ["wedge"], "wedge": []}, ["done"],
                "'wedge' is not terminal and has no outgoing transition",
            ),
            (
                {"start": ["loop"], "loop": ["loop"]}, ["done"],
                "'loop' has no declared path to a terminal state",
            ),
        ],
        ids=["no-terminal", "unreachable", "wedged", "no-path-to-terminal"],
    )
    def test_malformed_table_fails_at_declaration(self, edges, terminal, problem):
        """A malformed table fails where it is declared — importing
        :mod:`repro.protocol` — not when some run first walks it."""
        with pytest.raises(ValueError, match=problem):
            _table("bad", "start", edges, terminal)


class TestTracker:
    def test_happy_path(self):
        proto = SHARD_REASSIGN.tracker()
        for state in ("pause", "drain", "migration", "routing_update", "done"):
            proto.advance(state)
        assert proto.finished

    def test_undeclared_transition_raises(self):
        proto = SHARD_REASSIGN.tracker()
        proto.advance("pause")
        with pytest.raises(ProtocolError, match="undeclared"):
            proto.advance("routing_update")

    def test_unknown_state_raises(self):
        proto = RC_SYNC.tracker()
        with pytest.raises(ProtocolError, match="unknown state"):
            proto.advance("warmup")

    def test_advance_after_finish_raises(self):
        proto = SHARD_REASSIGN.tracker()
        proto.advance("aborted")
        with pytest.raises(ProtocolError, match="after terminal"):
            proto.advance("pause")

    def test_close_requires_terminal(self):
        proto = FAULT_RECOVERY.tracker()
        with pytest.raises(ProtocolError, match="terminal"):
            proto.close("detected")

    def test_close_is_noop_when_finished(self):
        proto = RC_SYNC.tracker()
        proto.advance("pause")
        proto.advance("drain")
        proto.advance("migration")
        proto.advance("routing_update")
        proto.advance("done")
        proto.close("aborted")  # finally-block safety: already finished
        assert proto.state == "done"

    def test_close_aborts_mid_protocol(self):
        proto = SHARD_REASSIGN.tracker()
        proto.advance("pause")
        proto.close("aborted")
        assert proto.finished
        assert proto.state == "aborted"

    def test_history_records_walk(self):
        proto = SHARD_REASSIGN.tracker()
        proto.advance("pause")
        proto.advance("drain")
        assert proto.history == ("start", "pause", "drain")


class _RecordingTable:
    """Stands in for a table and keeps every tracker it hands out."""

    def __init__(self, table):
        self.table = table
        self.trackers = []

    def tracker(self):
        proto = self.table.tracker()
        self.trackers.append(proto)
        return proto


class TestOneShardMove:
    def test_rehoming_walks_the_shard_move_table(self, monkeypatch):
        # Balancing and crash re-homing walk one table: an orphaned shard's
        # drain is empty, but it passes every phase of a live move.
        import repro.executors.elastic as elastic

        recording = _RecordingTable(SHARD_REASSIGN)
        monkeypatch.setattr(elastic, "SHARD_REASSIGN", recording)
        env = Environment()
        cluster = Cluster(env, num_nodes=2, cores_per_node=4)
        spec = OperatorSpec("op", logic=SyntheticLogic(), num_executors=1,
                            shards_per_executor=8)
        executor = ElasticExecutor(env, cluster, spec, index=0, local_node=0)
        executor.connect([], sink_recorder=lambda batch, now: None)
        executor.start(initial_cores=1)
        stats = RecoveryStats()

        def script():
            yield from executor.add_core(1)
            moved = len(recording.trackers)
            victim = next(t for t in executor.tasks.values() if t.node_id == 1)
            orphans = executor.crash_tasks([victim], DeadLetterReaper(env, stats))
            yield from executor.rehome_orphans(orphans, 1, stats, rebuild_rate=1e9)
            return moved, orphans

        proc = env.process(script())
        env.run(until=5.0)
        moved, orphans = proc.value
        walk = ("start", "pause", "drain", "migration", "routing_update", "done")
        assert moved == len(orphans) == 4  # spread_by_count onto the new core
        assert len(recording.trackers) == 2 * len(orphans)
        assert all(proto.history == walk for proto in recording.trackers)
        assert stats.shards_rebuilt.total == len(orphans)
        assert all(executor.routing.entry(s).task is not None for s in orphans)
