"""Unit tests for the analysis helpers."""

import pytest

from repro.analysis import ResultTable, SingleExecutorHarness


class TestResultTable:
    def test_render_aligns_columns(self):
        table = ResultTable("Demo", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("b", 12345.678)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2] and "value" in lines[2]
        assert "alpha" in text
        assert "12,346" in text  # thousands formatting

    def test_float_formatting(self):
        assert ResultTable._format(0.000123) == "0.000123"
        assert ResultTable._format(3.14159) == "3.14"
        assert ResultTable._format(1234.5) == "1,234"
        assert ResultTable._format(0) == "0"
        assert ResultTable._format("text") == "text"

    def test_wrong_arity_rejected(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            ResultTable("t", [])

    def test_str_matches_render(self):
        table = ResultTable("t", ["a"])
        table.add_row(1)
        assert str(table) == table.render()


class TestSingleExecutorHarness:
    def test_one_core_throughput_matches_cost(self):
        harness = SingleExecutorHarness(cost_per_tuple=1e-3)
        result = harness.measure(1, duration=6.0, warmup=3.0)
        assert result["throughput"] == pytest.approx(1000, rel=0.05)
        assert result["efficiency"] == pytest.approx(1.0, rel=0.05)

    def test_multi_core_scales(self):
        harness = SingleExecutorHarness(cost_per_tuple=1e-3)
        one = harness.measure(1, duration=6.0, warmup=3.0)
        four = harness.measure(4, duration=6.0, warmup=3.0)
        assert four["throughput"] > 2.5 * one["throughput"]

    def test_offered_rate_below_capacity_gives_low_latency(self):
        harness = SingleExecutorHarness(cost_per_tuple=1e-3)
        result = harness.measure(
            4, duration=6.0, warmup=3.0, offered_rate=1500.0
        )
        assert result["throughput"] == pytest.approx(1500, rel=0.1)
        assert result["latency_p99"] < 0.2

    def test_remote_cores_migrate_state(self):
        harness = SingleExecutorHarness(cost_per_tuple=1e-3, cores_per_node=2)
        result = harness.measure(4, duration=6.0, warmup=3.0)
        assert result["migrated_bytes"] > 0  # shards spread to other nodes

    @pytest.mark.parametrize(
        "cores_per_node, cores, window, mean, p99",
        [
            (8, 2, {}, 0.14000915750915446, 0.18822717415038345),
            (2, 4, {"duration": 6.0, "warmup": 3.0},
             0.10434702870588008, 0.2392855495976778),
        ],
    )
    def test_queue_latency_is_pinned(self, cores_per_node, cores, window, mean, p99):
        # The sink recorder sketches queueing latency exactly as the task
        # loop once did: same values, same order, same warm-up reset.
        harness = SingleExecutorHarness(
            cost_per_tuple=1e-3, cores_per_node=cores_per_node
        )
        result = harness.measure(cores, **window)
        assert result["latency_mean"] == mean
        assert result["latency_p99"] == p99

    def test_validation(self):
        with pytest.raises(ValueError):
            SingleExecutorHarness(cost_per_tuple=0.0)
        harness = SingleExecutorHarness()
        with pytest.raises(ValueError):
            harness.measure(0)
