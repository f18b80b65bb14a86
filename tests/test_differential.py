"""Differential check: every paradigm ends in the same per-key state.

At a rate every paradigm sustains and with no faults, every paradigm
admits every tuple.  The micro calculator's ``SyntheticLogic`` keeps one
counter per key, so once a bounded run has drained, the counters summed
over every store of the operator must equal the tuples the sources
emitted per key, whatever the paradigm moved and over whichever fabric.
Static never moves state, so it is the reference the moving paradigms
are held to.  The emitted counts are recorded here, on the test side,
from the schedules the sources pull.
"""

import collections

import pytest

from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig

PARADIGMS = (Paradigm.STATIC, Paradigm.RC, Paradigm.NAIVE_EC, Paradigm.ELASTICUTOR)
FABRICS = (None, "lan", "wan", "cloud")
EMIT_SECONDS = 10.0
#: Virtual time by which every run has drained (asserted, not assumed).
DRAINED_BY = 25.0


def recorded(schedule, source, stream):
    """``schedule``, appending each batch it yields to ``stream``."""
    for emit_time, batch in schedule:
        stream.append((source, emit_time, batch.key, batch.count))
        yield emit_time, batch


def operator_stores(system):
    if system.config.paradigm is Paradigm.RC:
        return list(system.rc_managers["calculator"]._stores.values())
    return [
        store
        for executor in system.executors_by_operator["calculator"]
        for store in executor.stores.values()
    ]


def final_state(system):
    """Per-key counter summed over every store of the measured operator."""
    state = collections.Counter()
    for store in operator_stores(system):
        for shard_id in store.shard_ids:
            state.update(store.get(shard_id).data)
    return state


def drained_run(paradigm, network_profile):
    """(stream, final state, shard moves) of one bounded run, drained."""
    workload = MicroBenchmarkWorkload(
        rate=3000, num_keys=1000, skew=0.9, omega=8.0, batch_size=10, seed=13
    )
    topology = workload.build_topology(executors_per_operator=4, shards_per_executor=16)
    system = StreamSystem(topology, workload, SystemConfig(
        paradigm=paradigm, num_nodes=4, cores_per_node=4, source_instances=2,
        network_profile=network_profile,
    ))
    stream = []
    workload.start_dynamics(system.env)
    for i, source in enumerate(system.sources):
        source.start(recorded(
            workload.schedule(system.env, i, len(system.sources), duration=EMIT_SECONDS),
            i, stream,
        ))
    system.env.run(until=DRAINED_BY)
    emitted = sum(source.emitted_tuples for source in system.sources)
    assert emitted == sum(count for *_, count in stream) > 0
    assert system.sink_completions.window_sum(0.0, float("inf")) == emitted, "not drained"
    return stream, final_state(system), len(system.reassignment_stats.records)


@pytest.fixture(scope="module")
def runs():
    return {
        (paradigm, fabric): drained_run(paradigm, fabric)
        for paradigm in PARADIGMS
        for fabric in FABRICS
    }


@pytest.mark.parametrize("fabric", FABRICS, ids=lambda fabric: fabric or "plain")
@pytest.mark.parametrize("paradigm", PARADIGMS, ids=lambda paradigm: paradigm.value)
def test_state_counts_every_emitted_tuple_once(runs, paradigm, fabric):
    stream, state, _ = runs[paradigm, fabric]
    emitted = collections.Counter()
    for _, _, key, count in stream:
        emitted[key] += count
    assert state == emitted


def test_identical_streams_end_in_identical_state(runs):
    by_stream = collections.defaultdict(list)
    for name, (stream, state, _) in runs.items():
        by_stream[tuple(stream)].append((name, state))
    # The comparison must bite: static (the reference) shares its stream
    # with at least one paradigm that moves state.
    assert any(len(group) > 1 for group in by_stream.values())
    for group in by_stream.values():
        (_, reference), *others = group
        for name, state in others:
            assert state == reference, name


def test_some_run_moved_shards(runs):
    assert any(moves for _, _, moves in runs.values())
