"""Tests for the checked-in protocol transition tables and tracker."""

import pytest

from repro.protocol import (
    FAULT_RECOVERY,
    RC_SYNC,
    REHOME,
    SHARD_REASSIGN,
    TABLES,
    ProtocolError,
)


class TestTables:
    def test_registry_is_complete(self):
        assert set(TABLES) == {
            "shard_reassign", "rc_sync", "fault_recovery", "rehome",
        }
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
        proto = REHOME.tracker()
        proto.advance("aborted")
        with pytest.raises(ProtocolError, match="after terminal"):
            proto.advance("placed")

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
