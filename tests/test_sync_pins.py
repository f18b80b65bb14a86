"""Pinned outputs of the synchronization and repair paths no benchmark runs.

RC crash recovery (node crash and core failure, state lost and kept, and
the no-capacity stall), RC scale-in (executors retire right after the
gate reopens) and a hybrid split followed by a merge all walk the one
operator barrier of :mod:`repro.executors.gate`.  The executor-centric
repairs walk the one shard move and the fault coordinator's one repair
step: an Elasticutor core failure (state kept, re-homed on the same node
and across nodes), a crash of a node hosting only remote tasks (state
rebuilt), a crash of an executor's own node (restart with extra cores,
seized from other executors), re-homing over an external state store,
and a static core failure whose restart finds no free core.

Each scenario here reduces a run to plain numbers — recovery counters,
reassignment records, final per-key state, shard owners, the subspace
slot table and the simulator's event count — and compares them with
``fixtures/sync_pins.json``.  Any refactor of those paths must leave
every number where it is.

Regenerate the fixture only for a change meant to move these outputs::

    PYTHONPATH=src:. python -m tests.test_sync_pins
"""

import dataclasses
import json
import pathlib
import typing

import pytest

from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig
from repro.cluster import Cluster
from repro.executors import ElasticExecutor
from repro.faults.recovery import DeadLetterReaper
from repro.metrics.recovery import RecoveryStats
from repro.sim import Environment
from repro.state import ExternalStateService
from repro.topology import OperatorSpec, TupleBatch
from tests.test_external_state import CountingLogic
from tests.test_hybrid import World
from tests.test_hybrid import batch as hybrid_batch
from tests.test_rc import RecordingLogic, batch, drive, make_rc

PINS = pathlib.Path(__file__).parent / "fixtures" / "sync_pins.json"


def _records(stats) -> typing.List[list]:
    return [list(dataclasses.astuple(record)) for record in stats.records]


def _recovery(stats: RecoveryStats) -> dict:
    return {
        "counters": stats.snapshot(),
        "events": [[e.time, e.kind, e.detail] for e in stats.events],
    }


def _state(stores: typing.Iterable[typing.Any]) -> typing.List[list]:
    """Sorted ``[key, value]`` pairs over every shard of ``stores``."""
    pairs = []
    for store in stores:
        for shard_id in store.shard_ids:
            pairs.extend(store.get(shard_id).data.items())
    return sorted([key, value] for key, value in pairs)


def rc_system(fault_spec: str, num_nodes: int, cores_per_node: int) -> dict:
    """A whole RC run under one fault: recovery plus repartitioning."""
    workload = MicroBenchmarkWorkload(
        rate=4000, num_keys=500, skew=0.9, omega=4.0, batch_size=10, seed=13
    )
    topology = workload.build_topology(
        executors_per_operator=4, shards_per_executor=16
    )
    config = SystemConfig(
        paradigm=Paradigm.RC, num_nodes=num_nodes, cores_per_node=cores_per_node,
        source_instances=2, fault_spec=fault_spec,
    )
    system = StreamSystem(topology, workload, config)
    result = system.run(duration=16.0, warmup=4.0)
    summary = result.to_dict()
    summary.pop("scheduler_mean_wall_seconds")  # wall clock
    managers = [system.rc_managers[name] for name in sorted(system.rc_managers)]
    return {
        "events": system.env.events_processed,
        "result": summary,
        "recovery": _recovery(system.recovery_stats),
        "reassignments": [_records(m.reassignment_stats) for m in managers],
        "state": [_state(m._stores.values()) for m in managers],
        "owners": [
            [m.executor_for_shard(s).name for s in range(m.total_shards)]
            for m in managers
        ],
    }


def executor_system(
    paradigm: Paradigm, fault_spec: str, num_nodes: int, cores_per_node: int,
    rate: int, duration: float = 16.0,
) -> dict:
    """A whole elastic or static run under ``fault_spec``."""
    workload = MicroBenchmarkWorkload(
        rate=rate, num_keys=500, skew=0.9, omega=4.0, batch_size=10, seed=13
    )
    topology = workload.build_topology(
        executors_per_operator=4, shards_per_executor=16
    )
    config = SystemConfig(
        paradigm=paradigm, num_nodes=num_nodes, cores_per_node=cores_per_node,
        source_instances=2, fault_spec=fault_spec,
    )
    system = StreamSystem(topology, workload, config)
    result = system.run(duration=duration, warmup=4.0)
    summary = result.to_dict()
    summary.pop("scheduler_mean_wall_seconds")  # wall clock
    executors = [
        executor
        for name in sorted(system.executors_by_operator)
        for executor in system.executors_by_operator[name]
    ]
    return {
        "events": system.env.events_processed,
        "result": summary,
        "recovery": _recovery(system.recovery_stats),
        "reassignments": [_records(e.reassignment_stats) for e in executors],
        "state": [_state(e.stores.values()) for e in executors],
        "owners": [_owners(e) for e in executors],
        "local_nodes": [e.local_node for e in executors],
    }


def _owners(executor: typing.Any) -> typing.List[typing.Any]:
    """``[task_id, node]`` per shard (None while orphaned)."""
    owners = []
    for shard_id in range(executor.num_shards):
        task = executor.routing.entry(shard_id).task
        owners.append(None if task is None else [task.task_id, task.node_id])
    return owners


def elastic_rehome_external() -> dict:
    """A task crash re-homed over an external state store: nothing moves."""
    env = Environment()
    cluster = Cluster(env, num_nodes=4, cores_per_node=4)
    service = ExternalStateService(env, cluster.network, storage_nodes=[3])
    logic = CountingLogic()
    spec = OperatorSpec("op", logic=logic, num_executors=1, shards_per_executor=8)
    executor = ElasticExecutor(env, cluster, spec, index=0, local_node=0,
                               external_state=service)
    executor.connect([], sink_recorder=lambda b, n: None)
    executor.start(initial_cores=1)
    stats = RecoveryStats()

    def feed():
        for i in range(400):
            yield executor.input_queue.put(TupleBatch(
                key=i % 24, count=2, cpu_cost=1e-3, size_bytes=128,
                created_at=env.now,
            ))
            yield env.timeout(2e-3)

    def script():
        yield env.timeout(0.1)
        yield from executor.add_core(1)
        yield from executor.add_core(2)
        yield env.timeout(0.3)
        victim = next(t for t in executor.tasks.values() if t.node_id == 1)
        orphans = executor.crash_tasks([victim], DeadLetterReaper(env, stats))
        yield env.timeout(0.05)
        yield from executor.rehome_orphans(
            orphans, 1, stats, rebuild_rate=100e6, lose_state=True
        )

    env.process(feed())
    env.process(script())
    env.run(until=3.0)
    return {
        "events": env.events_processed,
        "recovery": _recovery(stats),
        "seen": logic.seen,
        "owners": _owners(executor),
        "reassignments": _records(executor.reassignment_stats),
        "state": sorted(
            [key, value]
            for shard in service._shards.values()
            for key, value in shard.data.items()
        ),
    }


def rc_stalled(manage_interval: float = 1e9) -> dict:
    """The only executor dies with its node and no core is free anywhere."""
    env = Environment()
    cluster = Cluster(env, num_nodes=2, cores_per_node=1)
    logic = RecordingLogic()
    manager, group = make_rc(env, cluster, logic, num_executors=1,
                             shards_per_executor=8, manage_interval=manage_interval)
    cluster.cores.allocate("filler", 1, 1)
    drive(env, cluster, group, [batch(key=k % 16) for k in range(300)],
          spacing=5e-3)
    stats = RecoveryStats()
    lost: typing.List[typing.Any] = []

    def crash():
        yield env.timeout(0.8)
        executor = manager.executors[0]
        cluster.fail_node(executor.node_id)
        reaper = DeadLetterReaper(
            env, stats,
            on_lost=lambda item: (lost.append(item), manager.in_flight.forget(1)),
        )
        executor.crash(reaper)
        yield env.timeout(0.1)
        yield from manager.recover_from_crash(
            [executor], stats, rebuild_rate=50e6, state_lost=True
        )

    env.process(crash())
    env.run(until=3.0)
    return {
        "events": env.events_processed,
        "recovery": _recovery(stats),
        "seen": len(logic.seen),
        "lost": len(lost),
        "gate_closed": manager.gate.closed,
        "state": _state(manager._stores.values()),
    }


def rc_scale_in() -> dict:
    """Repartitioning that retires executors as the gate reopens."""
    env = Environment()
    cluster = Cluster(env, num_nodes=4, cores_per_node=4)
    logic = RecordingLogic(cost_per_tuple=2e-3)
    manager, group = make_rc(env, cluster, logic, num_executors=4,
                             shards_per_executor=8, manage_interval=0.4,
                             upstreams=3)
    manager.target_executors_fn = lambda m: 2 if env.now > 1.5 else 4
    drive(env, cluster, group,
          [batch(key=(k * 7) % 40, cost=2e-3, payload=k) for k in range(900)],
          spacing=2e-3)
    env.run(until=5.0)
    return {
        "events": env.events_processed,
        "repartitions": manager.repartition_count,
        "reassignments": _records(manager.reassignment_stats),
        "executors": [e.name for e in manager.executors],
        "free_cores": cluster.cores.total_free,
        "seen": [list(item) for item in logic.seen],
        "state": _state(manager._stores.values()),
    }


def hybrid_split_merge() -> dict:
    """Split one executor, then merge the sibling back."""
    world = World(num_executors=1, interval=1e9)
    env, controller = world.env, world.controller
    original = world.executors[0]
    siblings = []
    marks: typing.Dict[str, typing.Any] = {}
    world.drive([hybrid_batch(key=k % 48, count=2, payload=k) for k in range(600)],
                spacing=4e-3)

    def script():
        yield env.timeout(0.5)
        yield from controller.split(original)
        siblings.extend(world.group.executors[1:])
        marks["split_done"] = env.now
        marks["split_slots"] = slot_table()
        yield env.timeout(0.7)
        yield from controller.merge(original, siblings[0])
        marks["merge_done"] = env.now

    def slot_table() -> typing.List[str]:
        router = world.router
        return [router.executor_for_slot(s).name for s in range(router.num_slots)]

    env.process(script())
    env.run(until=4.0)
    executors = [(e.name, e) for e in [original, *siblings]]
    return {
        **marks,
        "events": env.events_processed,
        "splits": controller.splits,
        "merges": controller.merges,
        "slots": slot_table(),
        "state": {
            name: _state(e.stores.values()) for name, e in executors
        },
        "reassignments": {
            name: _records(e.reassignment_stats) for name, e in executors
        },
        "free_cores": world.cluster.cores.total_free,
        "seen": len(world.logic.seen),
    }


SCENARIOS: typing.Dict[str, typing.Callable[[], dict]] = {
    "rc_node_crash": lambda: rc_system("node_crash@8:node=3", 4, 2),
    "rc_core_failure": lambda: rc_system("core_failure@8:node=1", 4, 2),
    # No free core anywhere when the node dies.  A batch handed to
    # calculator[rc0]'s get in the crash's instant is dead-lettered with
    # its queue, so the in-flight ledger drains and the recovery completes
    # (rebuilding all 32 shards) instead of holding the gate shut.
    "rc_node_crash_full": lambda: rc_system("node_crash@8:node=0", 2, 3),
    "rc_stalled": rc_stalled,
    "rc_scale_in": rc_scale_in,
    "hybrid_split_merge": hybrid_split_merge,
    # Node 1's task failure re-homes onto the same node for free; node 2's
    # migrates its shard's state across nodes.
    "elastic_core_failure": lambda: executor_system(
        Paradigm.ELASTICUTOR, "core_failure@8:node=1;core_failure@9:node=2",
        4, 4, rate=9000,
    ),
    # Node 4 hosts remote tasks only: their shards are rebuilt elsewhere.
    "elastic_remote_node_crash": lambda: executor_system(
        Paradigm.ELASTICUTOR, "node_crash@8:node=4", 5, 4, rate=12000
    ),
    # calculator[2]'s own node dies; it restarts with four cores, each
    # seized from another executor.
    "elastic_own_node_crash": lambda: executor_system(
        Paradigm.ELASTICUTOR, "node_crash@8:node=2", 4, 4, rate=9000
    ),
    "elastic_rehome_external": elastic_rehome_external,
    # Static executors fill the cluster: the restart never finds a core.
    # The batch the task's get took at t=6.0 counts among the losses.
    "static_core_failure": lambda: executor_system(
        Paradigm.STATIC, "core_failure@6:node=1", 3, 2, rate=3000,
        duration=20.0,
    ),
}


def test_manager_idles_after_a_stalled_recovery():
    # Management rounds keep ticking after the stall; they used to crash
    # on the assignment that still names the dead executor.
    outcome = rc_stalled(manage_interval=0.5)
    assert [e[1] for e in outcome["recovery"]["events"]] == ["rc_recovery_stalled"]
    assert not outcome["gate_closed"]
    assert outcome["lost"] > 0


def _canonical(value: typing.Any) -> str:
    # Serialized comparison: NaN latencies compare equal as text.
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_pins(name):
    expected = json.loads(PINS.read_text())[name]
    assert _canonical(SCENARIOS[name]()) == _canonical(expected)


def write_pins(pins: typing.Dict[str, dict]) -> None:
    """One line per scenario field: small file, readable diffs."""
    scenarios = [
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(key)}: {_canonical(value)}"
            for key, value in sorted(pins[name].items())
        ) + "\n }"
        for name in sorted(pins)
    ]
    PINS.write_text("{\n" + ",\n".join(scenarios) + "\n}\n")


if __name__ == "__main__":
    write_pins({name: SCENARIOS[name]() for name in sorted(SCENARIOS)})
    print(f"wrote {PINS}")
