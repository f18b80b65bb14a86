"""The fault-injection subsystem and its conservation invariants.

Three layers of coverage:

1. :class:`FaultSpec` — the DSL/JSON schedule format must round-trip,
   reject malformed input loudly, and draw reproducible random schedules.
2. Hardware failure primitives — the core ledger and the network fabric
   must account failures exactly (capacity drops, bandwidth shrinks,
   partitions delay rather than drop).
3. End-to-end conservation under crashes — for every paradigm, each
   admitted tuple is processed, still queued, or explicitly counted as
   lost to the crash.  No silent loss, no duplication.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    FaultEvent,
    FaultKind,
    FaultSpec,
    MicroBenchmarkWorkload,
    Paradigm,
    StreamSystem,
    SystemConfig,
)
from repro.cluster import Cluster
from repro.cluster.cores import CoreAllocationError, CoreManager
from repro.cluster.network import NetworkFabric, TransferPurpose
from repro.cluster.node import Node
from repro.executors import ElasticExecutor
from repro.executors.config import ExecutorConfig
from repro.faults.recovery import DeadLetterReaper
from repro.faults.spec import FaultSpecError
from repro.logic import SyntheticLogic
from repro.metrics.recovery import RecoveryStats
from repro.sim import Environment
from repro.sweep import TrialConfig, build_system
from repro.topology import OperatorSpec, TupleBatch


class TestFaultSpec:
    def test_parse_dsl(self):
        spec = FaultSpec.parse(
            "node_crash@30:node=5;link_degrade@10:node=2,factor=0.25,duration=5"
        )
        assert len(spec) == 2
        # Events come out time-sorted regardless of input order.
        assert spec.events[0].kind is FaultKind.LINK_DEGRADE
        assert spec.events[0].time == 10.0
        assert spec.events[0].factor == 0.25
        assert spec.events[0].duration == 5.0
        assert spec.events[1].kind is FaultKind.NODE_CRASH
        assert spec.events[1].node == 5
        assert spec.first_fault_time == 10.0

    def test_parse_latency_spike(self):
        spec = FaultSpec.parse("latency_spike@40:node=2,factor=8,duration=3")
        event = spec.events[0]
        assert event.kind is FaultKind.LATENCY_SPIKE
        assert (event.node, event.factor, event.duration) == (2, 8.0, 3.0)
        assert FaultSpec.parse(spec.to_dsl()).to_dsl() == spec.to_dsl()

    def test_parse_empty(self):
        spec = FaultSpec.parse("   ")
        assert len(spec) == 0
        assert spec.first_fault_time is None

    def test_dsl_round_trip(self):
        text = (
            "partition@8:node=1,duration=2;"
            "executor_stall@15:target=calculator:0,factor=0.2,duration=8;"
            "node_crash@30:node=3"
        )
        spec = FaultSpec.parse(text)
        assert FaultSpec.parse(spec.to_dsl()).to_dsl() == spec.to_dsl()
        assert spec.to_dsl() == text  # input was already sorted/canonical

    def test_parse_json(self):
        payload = json.dumps(
            {
                "events": [
                    {"time": 12, "kind": "core_failure", "node": 2},
                    {
                        "time": 4,
                        "kind": "link_degrade",
                        "node": 0,
                        "factor": 0.5,
                        "duration": 3,
                    },
                ]
            }
        )
        spec = FaultSpec.parse(payload)
        assert [e.kind for e in spec] == [
            FaultKind.LINK_DEGRADE,
            FaultKind.CORE_FAILURE,
        ]
        assert FaultSpec.from_dicts(spec.to_dicts()).to_dsl() == spec.to_dsl()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps([{"time": 5, "kind": "node_crash", "node": 1}]))
        spec = FaultSpec.load(str(path))
        assert len(spec) == 1
        assert spec.events[0].node == 1
        # Non-file input falls back to DSL parsing.
        assert len(FaultSpec.load("node_crash@5:node=1")) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "node_crash:node=5",  # missing @time
            "meteor_strike@5:node=1",  # unknown kind
            "node_crash@-1:node=1",  # negative time
            "node_crash@5",  # missing node
            "link_degrade@5:node=1,factor=0.5",  # transient without duration
            "link_degrade@5:node=1,factor=0,duration=2",  # factor <= 0
            "latency_spike@5:node=1,factor=8",  # transient without duration
            "executor_stall@5:factor=0.5,duration=2",  # stall without target
            "node_crash@5:node",  # missing '='
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(FaultSpecError):
            FaultSpec.parse(bad)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.text(alphabet="node_crash@:=,;.-+0123456789einf[]{}\" "),
        )
    )
    @example("[1]")
    @example('{"events": 5}')
    @example("node_crash@x:node=1")
    @example("node_crash@5:node=abc")
    @example("node_crash@nan:node=1")
    @example("node_crash@5:node=1,bogus=2")
    @example("node_crash@5:node=99")
    def test_any_text_parses_or_raises_fault_spec_error(self, text):
        try:
            spec = FaultSpec.parse(text)
        except FaultSpecError:
            return
        # Whatever parses round-trips through the DSL.
        assert FaultSpec.parse(spec.to_dsl()).to_dsl() == spec.to_dsl()

    @pytest.mark.parametrize(
        "bad, names",
        [
            ("[1]", "in 1"),
            ('{"events": 5}', "got 5"),
            ("node_crash@x:node=1", "'node_crash@x:node=1'"),
            ("node_crash@5:node=abc", "'node_crash@5:node=abc'"),
            ("node_crash@nan:node=1", "must be finite"),
            ("node_crash@5:node=1,bogus=2", "unknown key(s) ['bogus']"),
        ],
    )
    def test_malformed_input_names_the_culprit(self, bad, names):
        with pytest.raises(FaultSpecError) as exc_info:
            FaultSpec.parse(bad)
        assert names in str(exc_info.value)

    def test_cli_reports_bad_spec_as_usage_error(self, capsys):
        from repro.cli import main

        argv = ["run", "--duration", "1", "--warmup", "0", "--nodes", "4"]
        assert main([*argv, "--fault-spec", "node_crash@5:node=99"]) == 2
        assert "targets node 99" in capsys.readouterr().err
        assert main([*argv, "--fault-spec", "[1]"]) == 2
        assert "must be an object" in capsys.readouterr().err

    def test_config_rejects_out_of_range_node(self):
        # Caught at construction, not as an IndexError mid-simulation.
        with pytest.raises(FaultSpecError, match="nodes 0..3"):
            SystemConfig(
                paradigm=Paradigm.ELASTICUTOR, num_nodes=4, cores_per_node=4,
                fault_spec="node_crash@10:node=99",
            )

    def test_random_respects_protected_nodes(self):
        for seed in range(10):
            spec = FaultSpec.random(
                seed=seed, duration=60.0, num_nodes=4, num_events=6,
                protected_nodes=(0,),
            )
            crashes = [e for e in spec if e.kind is FaultKind.NODE_CRASH]
            assert len(crashes) <= 1  # small clusters stay viable
            assert all(e.node != 0 for e in crashes)
            assert all(0.0 < e.time < 60.0 for e in spec)


class TestCoreManagerFailures:
    def build(self):
        cores = CoreManager([Node(0, 4), Node(1, 4)])
        cores.allocate("a", 0, 3)
        cores.allocate("b", 0, 1)
        cores.allocate("b", 1, 2)
        return cores

    def test_fail_node_withdraws_holdings(self):
        cores = self.build()
        withdrawn = cores.fail_node(0)
        assert withdrawn == {"a": 3, "b": 1}
        assert cores.capacity(0) == 0
        assert cores.free(0) == 0
        assert cores.failed_nodes() == {0}
        assert cores.holdings("a") == {}
        assert cores.holdings("b") == {1: 2}  # survivors untouched
        assert cores.fail_node(0) == {}  # idempotent
        with pytest.raises(CoreAllocationError):
            cores.allocate("c", 0, 1)

    def test_fail_core_consumes_free_core_first(self):
        cores = self.build()
        assert cores.free(1) == 2
        assert cores.fail_core(1) is None  # idle core absorbed it
        assert cores.capacity(1) == 3
        assert cores.free(1) == 1

    def test_fail_core_seizes_from_largest_owner(self):
        cores = self.build()
        assert cores.fail_core(0) == "a"  # a holds 3 vs b's 1
        assert cores.capacity(0) == 3
        assert cores.holdings("a") == {0: 2}

    def test_fail_core_on_dead_node_is_noop(self):
        cores = self.build()
        cores.fail_node(0)
        assert cores.fail_core(0) is None
        assert cores.capacity(0) == 0

    def test_cluster_fail_node_flips_liveness(self):
        cluster = Cluster(Environment(), num_nodes=3, cores_per_node=2)
        cluster.cores.allocate("x", 2, 2)
        withdrawn = cluster.fail_node(2)
        assert withdrawn == {"x": 2}
        assert not cluster.is_alive(2)
        assert cluster.alive_nodes() == [0, 1]


class TestNetworkFaults:
    def finish_time(self, configure):
        """Virtual time at which a 1 MB transfer from node 0 to 1 lands."""
        env = Environment()
        fabric = NetworkFabric(
            env, num_nodes=2, bandwidth_bytes_per_s=1e6, base_latency=0.0
        )
        configure(fabric)
        done = []

        def waiter():
            yield fabric.transfer(0, 1, 1e6)
            done.append(env.now)

        env.process(waiter())
        env.run(until=100.0)
        assert done, "transfer never completed"
        return done[0]

    def test_degraded_link_slows_transfer(self):
        baseline = self.finish_time(lambda fabric: None)
        degraded = self.finish_time(
            lambda fabric: fabric.set_bandwidth_factor(1, 0.25)
        )
        assert baseline == pytest.approx(1.0)
        assert degraded == pytest.approx(4.0)  # 4x slower at factor 0.25

    def test_restored_link_runs_at_full_speed(self):
        def flap(fabric):
            fabric.set_bandwidth_factor(0, 0.1)
            fabric.set_bandwidth_factor(0, 1.0)

        assert self.finish_time(flap) == pytest.approx(1.0)

    def test_partition_delays_but_delivers(self):
        delayed = self.finish_time(lambda fabric: fabric.partition_until(1, 5.0))
        assert delayed == pytest.approx(6.0)  # waits out the outage, then sends

    def test_bad_factor_rejected(self):
        fabric = NetworkFabric(Environment(), num_nodes=2)
        with pytest.raises(ValueError):
            fabric.set_bandwidth_factor(0, 0.0)

    def test_latency_spike_stretches_then_restores(self):
        env = Environment()
        fabric = NetworkFabric(
            env, num_nodes=2, bandwidth_bytes_per_s=1e6, base_latency=0.01
        )
        fabric.set_latency_spike(1, 10.0)
        done = []
        fabric.transfer(0, 1, 0).callbacks.append(lambda ev: done.append(env.now))
        env.run()
        assert done[0] == pytest.approx(0.1)  # 10x the 10 ms base latency
        fabric.set_latency_spike(1, 1.0)
        assert fabric.expected_latency(0, 1) == pytest.approx(0.01)


def run_faulted(paradigm, fault_spec, rate=6000, duration=25.0):
    workload = MicroBenchmarkWorkload(
        rate=rate, num_keys=1000, skew=0.9, omega=4.0, batch_size=10, seed=13
    )
    topology = workload.build_topology(
        executors_per_operator=4, shards_per_executor=16
    )
    config = SystemConfig(
        paradigm=paradigm, num_nodes=4, cores_per_node=4, source_instances=2,
        fault_spec=fault_spec,
    )
    system = StreamSystem(topology, workload, config)
    result = system.run(duration=duration, warmup=5.0)
    return system, result


def emitted_tuples(system):
    return sum(source.emitted_tuples for source in system.sources)


def processed_tuples(system):
    return int(system.sink_completions.window_sum(0.0, float("inf")))


class TestConservationUnderFaults:
    """Every admitted tuple is processed, queued, or explicitly lost."""

    @pytest.mark.parametrize("paradigm", list(Paradigm))
    def test_node_crash_accounting_is_exact(self, paradigm):
        system, result = run_faulted(paradigm, "node_crash@10:node=3")
        emitted = emitted_tuples(system)
        processed = processed_tuples(system)
        lost = result.recovery["tuples_lost"]
        assert emitted > 0
        assert result.recovery["faults_injected"] == 1
        # No duplication: nothing is counted both processed and lost.
        assert processed + lost <= emitted
        # No silent loss: whatever is neither processed nor dead-lettered
        # is bounded by in-flight capacity (queues + windows).
        unaccounted = emitted - processed - lost
        assert unaccounted < 5000, f"{unaccounted} tuples unaccounted for"

    @pytest.mark.parametrize(
        "paradigm", [Paradigm.ELASTICUTOR, Paradigm.RC]
    )
    def test_elastic_paradigms_recover(self, paradigm):
        system, result = run_faulted(paradigm, "node_crash@10:node=3")
        assert result.recovery["recoveries"] >= 1
        assert result.recovery["downtime_seconds"] > 0.0
        assert result.time_to_steady_state < 15.0  # recovered before the end
        kinds = {event.kind for event in system.recovery_stats.events}
        assert "node_crash" in kinds
        assert "node_recovered" in kinds

    def test_core_failure_is_cheaper_than_node_crash(self):
        _, core_result = run_faulted(
            Paradigm.ELASTICUTOR, "core_failure@10:node=3"
        )
        _, crash_result = run_faulted(
            Paradigm.ELASTICUTOR, "node_crash@10:node=3"
        )
        assert core_result.recovery["faults_injected"] == 1
        # A single-core failure never loses whole-node state: it re-homes
        # shards from the dead core with state intact.
        assert core_result.recovery["state_bytes_rebuilt"] == 0
        assert (
            core_result.recovery["tuples_lost"]
            <= crash_result.recovery["tuples_lost"]
        )

    def test_transient_faults_lose_nothing(self):
        system, result = run_faulted(
            Paradigm.ELASTICUTOR,
            "link_degrade@8:node=1,factor=0.2,duration=4;"
            "partition@14:node=2,duration=1",
        )
        assert result.recovery["faults_injected"] == 2
        assert result.recovery["tuples_lost"] == 0
        unaccounted = emitted_tuples(system) - processed_tuples(system)
        assert 0 <= unaccounted < 5000

    def test_latency_spike_is_transient_and_lossless(self):
        system, result = run_faulted(
            Paradigm.ELASTICUTOR, "latency_spike@8:node=1,factor=20,duration=4"
        )
        assert result.recovery["faults_injected"] == 1
        assert result.recovery["tuples_lost"] == 0  # gray failure, no loss
        kinds = {event.kind for event in system.recovery_stats.events}
        assert "latency_spike" in kinds
        assert "latency_restored" in kinds
        # The spike is fully restored: no lingering multiplier at the end.
        network = system.cluster.network
        assert all(
            network.latency_spike(node) == 1.0
            for node in range(system.cluster.num_nodes)
        )

    def test_executor_stall_degrades_then_restores(self):
        healthy = run_faulted(Paradigm.ELASTICUTOR, None)[1]
        stalled = run_faulted(
            Paradigm.ELASTICUTOR,
            "executor_stall@8:target=calculator:0,factor=0.1,duration=6",
        )[1]
        assert stalled.recovery["faults_injected"] == 1
        assert stalled.recovery["tuples_lost"] == 0  # gray failure, no loss
        # The stalled executor backs work up: tail latency must suffer.
        assert stalled.latency["p99"] > healthy.latency["p99"]

    def test_move_onto_a_task_killed_mid_migration(self):
        # A core the scheduler just added on node 2 is still receiving a
        # shard's state when the node crashes.  The move must leave the
        # shard orphaned for recovery, not install it on the dead task.
        trial = TrialConfig(
            omega=8.0, duration=14.0, warmup=4.0,
            system_args={
                "fault_spec": "node_crash@8:node=2", "network_profile": "wan",
            },
        )
        system = build_system(trial)
        result = system.run(duration=trial.duration, warmup=trial.warmup)
        assert result.recovery["recoveries"] == 1
        # The sources' schedules are over: let every queue drain, the
        # re-homed shard's pause buffer included.
        system.env.run(until=40.0)
        lost = system.recovery_stats.snapshot()["tuples_lost"]
        assert lost > 0
        assert processed_tuples(system) + lost == emitted_tuples(system)

    @pytest.mark.parametrize(
        "fault_spec, executor",
        [
            ("node_crash@10:node=2", 2),
            ("node_crash@8:node=2;node_crash@9.5:node=3", 3),
        ],
    )
    def test_core_added_as_its_executor_dies_does_not_survive_restart(
        self, fault_spec, executor
    ):
        # A growth of the executor holds its control lock when the node
        # of its main process crashes.  The growth must give up, so the
        # restarted executor does not inherit tasks of the dead one.
        trial = TrialConfig(
            paradigm="elasticutor", omega=8.0, duration=14.0, warmup=4.0,
            system_args={"fault_spec": fault_spec},
        )
        system = build_system(trial)
        system.run(duration=trial.duration, warmup=trial.warmup)
        restarted = system.executors_by_operator["calculator"][executor]
        assert restarted.alive
        assert all(
            task.node_id in restarted.stores
            for task in restarted.tasks.values()
        )
        system.env.run(until=40.0)
        lost = system.recovery_stats.snapshot()["tuples_lost"]
        assert lost > 0
        assert processed_tuples(system) + lost == emitted_tuples(system)

    @pytest.mark.parametrize(
        "fault_spec",
        [
            # calculator[1] restarts onto nodes 6, 5, 2 and 0 from t=9.1998;
            # node 2 dies during the spawn, node 6 (its new main node)
            # during the spawn, node 5 during the state rebuild.
            "node_crash@8:node=1;node_crash@9.2:node=2",
            "node_crash@8:node=1;node_crash@9.21:node=6",
            "node_crash@8:node=1;node_crash@9.221:node=5",
        ],
        ids=["spawn", "main-node", "rebuild"],
    )
    def test_second_crash_during_a_restart(self, fault_spec):
        # The restart used to start a task on the node that died under
        # it, and the next scheduler round refused the assignment.
        trial = TrialConfig(
            paradigm="elasticutor", omega=8.0, duration=14.0, warmup=4.0,
            system_args={"fault_spec": fault_spec},
        )
        system = build_system(trial)
        cluster = system.cluster
        strategy = system.scheduler.strategy
        assign = strategy.assign
        on_dead = []

        def checked_assign(inp):
            matrix, phi = assign(inp)
            for columns in (inp.current, matrix):
                on_dead.extend(
                    (name, node)
                    for name, column in columns.items()
                    for node, cores in column.items()
                    if cores and not cluster.is_alive(node)
                )
            return matrix, phi

        strategy.assign = checked_assign
        result = system.run(duration=trial.duration, warmup=trial.warmup)
        assert result.recovery["recoveries"] == 2
        assert system.scheduler.report.rounds
        assert on_dead == []
        system.env.run(until=40.0)
        lost = system.recovery_stats.snapshot()["tuples_lost"]
        assert processed_tuples(system) + lost == emitted_tuples(system)

    def test_rehome_destination_killed_during_restore(self):
        # A node crash orphans four shards; their state is rebuilt at a
        # third of a second per shard.  A core failure kills the first
        # re-home destination (the node-0 task) mid-rebuild.  That shard
        # is stranded for the next re-home, and the rest of the plan
        # still moves: no shard may stay orphaned with a growing buffer.
        env = Environment()
        cluster = Cluster(env, num_nodes=3, cores_per_node=4)
        spec = OperatorSpec("op", logic=SyntheticLogic(), num_executors=1,
                            shards_per_executor=16)
        executor = ElasticExecutor(
            env, cluster, spec, index=0, local_node=0,
            config=ExecutorConfig(balance_interval=1000.0),
        )
        processed = []
        executor.connect([], sink_recorder=lambda batch, now: processed.append(batch))
        executor.start(initial_cores=1)
        stats = RecoveryStats()
        lost = []
        reaper = DeadLetterReaper(env, stats, on_lost=lost.append)
        fed = 2000
        stranded = []

        def feeder():
            for i in range(fed):
                yield executor.input_queue.put(TupleBatch(
                    key=i % 16, count=1, cpu_cost=0.2e-3, size_bytes=64,
                    created_at=env.now, payload=i,
                ))
                yield env.timeout(0.005)

        def script():
            for node in (1, 2, 2):
                yield from executor.add_core(node)
            victim = next(t for t in executor.tasks.values() if t.node_id == 1)
            orphans = executor.crash_tasks([victim], reaper)
            first = env.process(executor.rehome_orphans(
                orphans, 1, stats, rebuild_rate=1e5, lose_state=True
            ))
            yield env.timeout(0.1)
            destination = next(
                t for t in executor.tasks.values() if t.node_id == 0
            )
            dead_shards = executor.crash_tasks([destination], reaper)
            yield first
            stranded.extend(executor._stranded)
            yield from executor.rehome_orphans(
                dead_shards, 0, stats, rebuild_rate=1e5, lose_state=False
            )

        env.process(feeder())
        env.process(script())
        env.run(until=40.0)
        assert len(stranded) == 1  # the move bound for the dead task
        entries = [executor.routing.entry(s) for s in range(16)]
        assert all(e.task is not None and not e.paused for e in entries)
        assert executor.routing.buffered_items() == 0
        assert len(processed) + len(lost) == fed

    def test_receiver_waiting_for_a_window_grant_dead_letters_its_batch(self):
        # The receiver holds a batch for a remote task while every slot of
        # its send window is taken.  When the main process crashes, that
        # batch must be dead-lettered once, and never transferred later.
        env = Environment()
        cluster = Cluster(env, num_nodes=2, cores_per_node=4)
        spec = OperatorSpec("op", logic=SyntheticLogic(), num_executors=1,
                            shards_per_executor=16)
        executor = ElasticExecutor(
            env, cluster, spec, index=0, local_node=0,
            config=ExecutorConfig(balance_interval=1000.0),
        )
        executor.connect([], sink_recorder=lambda batch, now: None)
        executor.start(initial_cores=1)
        env.process(executor.add_core(1))
        env.run(until=5.0)
        remote = next(t for t in executor.tasks.values() if t.node_id == 1)
        shard = next(
            s for s in range(16) if executor.routing.entry(s).task is remote
        )
        key = next(
            k for k in range(spec.key_space.num_keys)
            if executor._shard_lookup[k] == shard
        )
        window = executor._receiver_sender._window
        for _ in range(window.capacity):
            window.request()
        executor.input_queue.put(TupleBatch(
            key=key, count=3, cpu_cost=0.2e-3, size_bytes=64,
            created_at=env.now, payload="held",
        ))
        env.run(until=6.0)
        assert window.queued == 1  # the receiver waits for a slot
        lost = []
        reaper = DeadLetterReaper(env, RecoveryStats(), on_lost=lost.append)
        executor.crash_main(reaper)
        assert [batch.payload for batch in lost] == ["held"]
        assert window.queued == 0
        for _ in range(window.capacity):
            window.release()
        env.run(until=10.0)
        assert [batch.payload for batch in lost] == ["held"]
        assert cluster.network.bytes_by_purpose[
            TransferPurpose.REMOTE_TASK
        ].total == 0

    def test_recovery_stalls_when_no_restart_finds_a_core(self):
        # Static executors fill the cluster, so the executor whose node
        # crashed finds no core in its forty attempts: the span's status
        # is the one record of the stall.
        trial = TrialConfig(
            paradigm="static", num_nodes=3, cores_per_node=2,
            source_instances=2, executors_per_operator=4,
            shards_per_executor=16, rate=3000, duration=20.0, warmup=4.0,
            system_args={"fault_spec": "node_crash@6:node=1"},
        )
        system = build_system(trial, telemetry=True)
        system.run(duration=trial.duration, warmup=trial.warmup)
        bus = system.env.telemetry
        (span,) = bus.spans_named("recovery")
        assert span.attrs["status"] == "stalled"
        assert span.attrs["restarts"] == 1
        events = [e.attrs["event"] for e in bus.events_of("fault_event")]
        assert "recovery_stalled" in events
        assert "node_recovered" not in events

    def test_static_cannot_restart_and_bleeds_tuples(self):
        _, static = run_faulted(Paradigm.STATIC, "node_crash@10:node=3")
        _, elastic = run_faulted(Paradigm.ELASTICUTOR, "node_crash@10:node=3")
        # With no spare cores and no elasticity protocol, the static
        # paradigm's dead key range keeps dead-lettering until the end.
        assert static.recovery["tuples_lost"] > elastic.recovery["tuples_lost"]
