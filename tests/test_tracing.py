"""Tests for latency-breakdown tracing."""

import pytest

from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig


def run(trace_every, paradigm=Paradigm.ELASTICUTOR):
    workload = MicroBenchmarkWorkload(
        rate=3000, num_keys=500, skew=0.5, omega=0.0, batch_size=10, seed=5
    )
    topology = workload.build_topology(
        executors_per_operator=2, shards_per_executor=8
    )
    config = SystemConfig(
        paradigm=paradigm, num_nodes=4, cores_per_node=2, source_instances=2,
        trace_every=trace_every,
    )
    system = StreamSystem(topology, workload, config)
    return system.run(duration=10.0, warmup=3.0)


class TestTracing:
    def test_disabled_by_default(self):
        result = run(trace_every=0)
        assert result.traces == []
        assert result.trace_breakdown()["service"] == 0.0

    @pytest.mark.parametrize("paradigm", [Paradigm.ELASTICUTOR, Paradigm.RC])
    def test_sampled_traces_collected(self, paradigm):
        result = run(trace_every=20, paradigm=paradigm)
        assert len(result.traces) > 10
        for trace in result.traces:
            assert {"created", "admitted", "received", "task_start", "done"} <= set(
                trace
            )
            assert (
                trace["created"]
                <= trace["admitted"]
                <= trace["received"]
                <= trace["task_start"]
                <= trace["done"]
            )

    def test_breakdown_sums_to_end_to_end(self):
        result = run(trace_every=20)
        breakdown = result.trace_breakdown()
        total = sum(breakdown.values())
        mean_e2e = sum(
            t["done"] - t["created"] for t in result.traces
        ) / len(result.traces)
        assert total == pytest.approx(mean_e2e, rel=1e-6)

    def test_service_time_matches_cost_model(self):
        result = run(trace_every=10)
        breakdown = result.trace_breakdown()
        # 10 tuples/batch x 1 ms/tuple = 10 ms service per batch.
        assert breakdown["service"] == pytest.approx(0.010, rel=0.05)

    def test_sampling_rate_roughly_respected(self):
        result = run(trace_every=50)
        # ~3000 t/s x 10 s / 10 per batch = 3000 batches; 1 in 50 traced.
        assert 30 <= len(result.traces) <= 90
