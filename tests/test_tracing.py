"""Tests for latency-breakdown tracing."""

import pytest

from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig
from repro.logic import SyntheticLogic
from repro.topology import KeySpace, TopologyBuilder
from repro.topology.batch import Emission


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


#: Per-tuple cost of each sink of the fan-out topologies.
SINK_COSTS = {"fast": 1e-4, "slow": 2e-3}


class SplitLogic(SyntheticLogic):
    """Emits each 10-tuple batch as two batches, of 3 and 7 tuples, on
    two keys."""

    def process(self, batch, state):
        first = batch.count // 3
        return [
            Emission(key=batch.key, count=first, size_bytes=batch.size_bytes),
            Emission(
                key=(batch.key + 250) % 500, count=batch.count - first,
                size_bytes=batch.size_bytes,
            ),
        ]


def run_fan_out(shape):
    """A traced run where each traced batch takes more than one branch.

    ``source``: src -> {fast, slow}.  ``emitter``: src -> mid -> {fast,
    slow}.  ``emissions``: src -> split -> slow, two output batches per
    input.  Returns ``(expected service time, trace)`` per traced batch
    delivered, with the trace copied at delivery.
    """
    workload = MicroBenchmarkWorkload(
        rate=1000, num_keys=500, skew=0.5, omega=0.0, batch_size=10, seed=5
    )
    builder = TopologyBuilder()
    builder.add_source("src", key_space=KeySpace(500), num_executors=2)
    upstream, sinks = "src", SINK_COSTS
    if shape != "source":
        upstream = "split" if shape == "emissions" else "mid"
        logic = SplitLogic if shape == "emissions" else SyntheticLogic
        builder.add_operator(
            upstream, logic(selectivity=1.0, cost_per_tuple=1e-5),
            upstream=["src"], key_space=KeySpace(500), num_executors=2,
            shards_per_executor=8,
        )
    if shape == "emissions":
        sinks = {"slow": SINK_COSTS["slow"]}
    for name, cost in sinks.items():
        builder.add_operator(
            name, SyntheticLogic(selectivity=0.0, cost_per_tuple=cost),
            upstream=[upstream], key_space=KeySpace(500), num_executors=2,
            shards_per_executor=8,
        )
    config = SystemConfig(
        paradigm=Paradigm.ELASTICUTOR, num_nodes=4, cores_per_node=2,
        source_instances=2, trace_every=5,
    )
    system = StreamSystem(builder.build(), workload, config)
    delivered = []
    for name, cost in sinks.items():
        for executor in system.executors_by_operator[name]:
            record = executor._sink_recorder

            def tagged(batch, now, cost=cost, record=record):
                if batch.trace is not None:
                    delivered.append((batch.count * cost, dict(batch.trace)))
                record(batch, now)

            executor._sink_recorder = tagged
    system.run(duration=10.0, warmup=3.0)
    return delivered


@pytest.mark.parametrize("shape", ["source", "emitter", "emissions"])
def test_fan_out_branches_keep_their_own_traces(shape):
    """Sibling branches of one traced batch must not overwrite each
    other's ``task_start`` / ``done`` stamps."""
    complete = [
        (service, trace) for service, trace in run_fan_out(shape)
        if {"task_start", "done"} <= set(trace)
    ]
    assert len({service for service, _ in complete}) == 2
    for service, trace in complete:
        assert trace["done"] - trace["task_start"] == pytest.approx(
            service, abs=1e-9
        )
