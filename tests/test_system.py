"""End-to-end integration tests for StreamSystem under every paradigm.

Scaled-down versions of the paper's setups: small cluster, short runs.
Each test checks behaviour the evaluation section depends on.
"""

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import typing
import weakref

import numpy as np
import pytest

from repro import (
    MicroBenchmarkWorkload,
    Paradigm,
    SSEWorkload,
    StreamSystem,
    SystemConfig,
)
from repro.cluster import LatencySpec, NetworkProfile, NodeProfile
from repro.executors.config import ExecutorConfig
from repro.faults import FaultEvent, FaultKind, FaultSpec
from repro.logic import OperatorLogic, SyntheticLogic
from repro.runtime import system as system_module
from repro.sweep import TrialConfig, run_trial
from repro.telemetry.report import percentile
from repro.topology.operator import OperatorSpec


class AgeRecordingSystem(StreamSystem):
    """Keeps every post-warmup sink age beside the headline sketch."""

    def __init__(self, *args, **kwargs):
        self.ages = []
        super().__init__(*args, **kwargs)

    def _record_sink(self, batch, now):
        super()._record_sink(batch, now)
        if now >= self._warmup:
            age = now - batch.created_at
            self.ages.append(age if age > 0.0 else 0.0)


def make_micro(
    paradigm, rate=6000, omega=0.0, duration=None, seed=3,
    system_cls=StreamSystem, **workload_kwargs,
):
    workload = MicroBenchmarkWorkload(
        rate=rate, num_keys=2000, skew=0.8, omega=omega, batch_size=20, seed=seed,
        **workload_kwargs,
    )
    topology = workload.build_topology(
        executors_per_operator=4, shards_per_executor=16
    )
    config = SystemConfig(
        paradigm=paradigm, num_nodes=4, cores_per_node=4, source_instances=2,
    )
    return system_cls(topology, workload, config)


def _numeric_fields(cls):
    """``(name, int | float)`` for each numeric (or optional numeric)
    dataclass field of ``cls``."""
    hints = typing.get_type_hints(cls, localns={"OperatorLogic": OperatorLogic})
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        if typing.get_origin(hint) is typing.Union:
            (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
        if hint in (int, float):
            yield field.name, hint


#: Each config class under the load-time rule: the keyword arguments of a
#: valid instance to vary one field of, and the ``system_args`` that put a
#: loaded instance into a small run (None: the construction outcome alone).
_LOADERS = {
    SystemConfig: ({}, lambda config, field: {field: getattr(config, field)}),
    ExecutorConfig: ({}, lambda config, field: {"executor": config}),
    NetworkProfile: ({}, lambda profile, field: {"network_profile": profile}),
    LatencySpec: ({}, lambda latency, field: {
        "network_profile": NetworkProfile(latency=latency)
    }),
    NodeProfile: ({}, lambda node_class, field: {
        "network_profile": NetworkProfile(classes=(node_class,))
    }),
    FaultEvent: (
        {"time": 1.0, "kind": FaultKind.LINK_DEGRADE, "node": 1, "factor": 0.5,
         "duration": 1.0},
        lambda event, field: {"fault_spec": FaultSpec([event])},
    ),
    TrialConfig: ({}, None),
    OperatorSpec: ({"name": "op", "logic": SyntheticLogic()}, None),
}
#: Values no numeric field takes: each must be rejected by name.
_INVALID = {
    float: [float("nan"), float("inf"), float("-inf"), True],
    int: [float("nan"), float("inf"), float("-inf"), 1e308, 1.5, True],
}
#: Values some fields take and some reject by their sign bound.
_SIGN_DEPENDENT = {float: [0.0, -1.0, 1e308], int: [0, -1]}
_LOAD_CASES = [
    (cls, field, value, invalid)
    for cls in _LOADERS
    for field, kind in _numeric_fields(cls)
    for values, invalid in ((_INVALID[kind], True), (_SIGN_DEPENDENT[kind], False))
    for value in values
]
#: Wall seconds a valid case's 3 s run may take.
LOAD_CASE_WALL_BOUND = 20.0


def _load_case_id(cls, field, value, invalid):
    # SystemConfig, the first class under the rule, keeps its bare ids.
    case = f"{field}-{value}"
    return case if cls is SystemConfig else f"{cls.__name__}.{case}"


@contextlib.contextmanager
def _wall_clock_bound(seconds):
    """Fail the block with ``TimeoutError`` after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"run did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestStreamSystemBasics:
    @pytest.mark.parametrize("paradigm", list(Paradigm))
    def test_all_paradigms_sustain_moderate_load(self, paradigm):
        system = make_micro(paradigm)
        result = system.run(duration=20.0, warmup=8.0)
        # 6k offered on 14 usable cores (1 ms/tuple): everyone keeps up.
        # Naive-EC's from-scratch placement churns cores, costing it some
        # throughput even here (that waste is the point of the ablation).
        tolerance = 0.15 if paradigm is Paradigm.NAIVE_EC else 0.05
        assert result.throughput_tps == pytest.approx(6000, rel=tolerance)
        assert result.latency["count"] > 0

    def test_elasticutor_low_latency_at_moderate_load(self):
        system = make_micro(Paradigm.ELASTICUTOR)
        result = system.run(duration=20.0, warmup=8.0)
        assert result.latency["mean"] < 0.5

    def test_static_suffers_under_skew_at_high_load(self):
        # Static's hottest executor saturates first and throttles admission
        # (head-of-line backpressure); Elasticutor rebalances around it.
        # Seed chosen so the hot keys collide on one static executor —
        # an unlucky permutation can spread them evenly, hiding the
        # head-of-line effect this test demonstrates.
        static = make_micro(Paradigm.STATIC, rate=11000, seed=0).run(20.0, warmup=8.0)
        elastic = make_micro(Paradigm.ELASTICUTOR, rate=11000, seed=0).run(20.0, warmup=8.0)
        assert elastic.throughput_tps > 1.15 * static.throughput_tps

    def test_scheduler_grows_executors_beyond_one_core(self):
        system = make_micro(Paradigm.ELASTICUTOR, rate=11000)
        system.run(duration=20.0, warmup=8.0)
        cores = [
            ex.num_cores for ex in system.executors_by_operator["calculator"]
        ]
        assert sum(cores) > 4  # grew beyond the initial 1 core each

    def test_core_accounting_consistent_after_run(self):
        system = make_micro(Paradigm.ELASTICUTOR, rate=11000)
        system.run(duration=20.0, warmup=8.0)
        held = sum(
            system.cluster.cores.held_total(ex.name)
            for ex in system.executors_by_operator["calculator"]
        )
        actual = sum(
            ex.num_cores for ex in system.executors_by_operator["calculator"]
        )
        assert held == actual
        assert system.cluster.cores.total_free >= 0

    def test_rc_creates_and_uses_executors(self):
        system = make_micro(Paradigm.RC, rate=11000)
        system.run(duration=20.0, warmup=8.0)
        manager = system.rc_managers["calculator"]
        assert len(manager.executors) > 4
        assert manager.repartition_count >= 1

    def test_static_executor_count_fills_cluster(self):
        system = make_micro(Paradigm.STATIC)
        assert len(system.executors_by_operator["calculator"]) == 14  # 16-2

    def test_naive_ec_moves_more_data_than_elasticutor(self):
        naive = make_micro(Paradigm.NAIVE_EC, rate=11000, omega=8.0)
        elastic = make_micro(Paradigm.ELASTICUTOR, rate=11000, omega=8.0)
        naive_result = naive.run(duration=30.0, warmup=10.0)
        elastic_result = elastic.run(duration=30.0, warmup=10.0)
        naive_traffic = naive_result.migration_bytes + naive_result.remote_task_bytes
        elastic_traffic = (
            elastic_result.migration_bytes + elastic_result.remote_task_bytes
        )
        assert naive_traffic >= elastic_traffic

    def test_headline_latency_matches_exact_sink_ages(self):
        system = make_micro(
            Paradigm.ELASTICUTOR, omega=8.0, system_cls=AgeRecordingSystem
        )
        result = system.run(duration=12.0, warmup=4.0)
        ages = system.ages
        assert result.latency["count"] == len(ages) > 1000
        ordered = sorted(ages)
        bound = system.sink_latency.relative_accuracy * (1.0 + 1e-9)
        for key, q in (("p50", 0.50), ("p99", 0.99)):
            exact = percentile(ordered, q)
            assert abs(result.latency[key] - exact) <= bound * exact, key
        # Left-to-right running sum, the order the sketch accumulates in
        # (builtin sum() compensates rounding on newer Pythons).
        total = 0.0
        for age in ages:
            total += age
        assert result.latency["mean"] == total / len(ages)

    def test_sink_sketch_payloads_are_pinned(self):
        # 4,952 post-warmup sink batches: one fold mid-run, one at read.
        system = make_micro(Paradigm.ELASTICUTOR, omega=8.0)
        system.run(duration=20.0, warmup=4.0)
        digests = [
            hashlib.sha256(
                json.dumps(sketch.to_dict(), sort_keys=True).encode()
            ).hexdigest()
            for sketch in (system.sink_latency, system.sink_residence)
        ]
        assert system.sink_latency.count == 4952
        assert digests == [
            "695d24180386edbfa8abcc0264f30195833b103272564e6a0f4b87d15e4c7699",
            "2abdc1c3adad54ec522fab6d323150341ab048d632503372b6c0bfbe44058ea1",
        ]

    def test_result_summary_renders(self):
        result = make_micro(Paradigm.ELASTICUTOR).run(10.0, warmup=4.0)
        text = result.summary()
        assert "throughput" in text
        assert "elasticutor" in text

    def test_run_validation(self):
        system = make_micro(Paradigm.STATIC)
        with pytest.raises(ValueError):
            system.run(duration=0.0)

    def test_run_rejects_warmup_past_duration(self):
        system = make_micro(Paradigm.STATIC)
        with pytest.raises(ValueError, match=r"warmup must lie in \[0, duration\)"):
            system.run(10.0, warmup=30.0)

    @pytest.mark.parametrize("phi", [0.0, -1.0])
    def test_nonpositive_phi_rejected_at_load(self, phi):
        # Rejected at load, not at the run's first scheduler round.
        with pytest.raises(ValueError, match=f"phi must be positive, got {phi}"):
            SystemConfig(phi=phi)

    @pytest.mark.parametrize(
        "cls, field, value, invalid", _LOAD_CASES,
        ids=[_load_case_id(*c) for c in _LOAD_CASES],
    )
    def test_malformed_number_rejected_at_load_by_name(self, cls, field, value, invalid):
        # Every numeric field of every config class, set to each value in
        # the malformed-number tables: NaN, ±inf, a bool or a float for an
        # int is rejected at load by the field's name (a NaN interval would
        # hang the run; a NaN bandwidth would finish with garbage
        # throughput).  A sign-dependent value is rejected by name too, or
        # it is valid and a short run still finishes.
        base, system_args = _LOADERS[cls]
        try:
            loaded = cls(**{**base, field: value})
        except ValueError as exc:
            assert str(exc).startswith(f"{field} must "), str(exc)
            return
        assert not invalid, f"{cls.__name__}({field}={value!r}) was accepted"
        if system_args is None:  # it sizes the run itself
            return
        trial = TrialConfig(
            rate=2000, duration=3.0, warmup=1.0, num_nodes=2, cores_per_node=4,
            source_instances=1, executors_per_operator=2, shards_per_executor=8,
            num_keys=500, system_args=system_args(loaded, field),
        )
        with _wall_clock_bound(LOAD_CASE_WALL_BOUND):
            run_trial(trial)

    @pytest.mark.parametrize(
        "weights, match",
        [
            ({"calculater": 2.0}, "static_weights key 'calculater' names no operator"),
            ({"calculator": 0.0}, r"static_weights\['calculator'\] must be positive"),
            ({"calculator": float("nan")}, r"static_weights\['calculator'\] must be a finite"),
            (5, "static_weights must map operator names to weights, got 5"),
        ],
        ids=["unknown-key", "zero-weight", "nan-weight", "not-a-mapping"],
    )
    def test_malformed_static_weights_rejected_at_build(self, weights, match):
        workload = MicroBenchmarkWorkload(rate=1000, num_keys=100)
        with pytest.raises(ValueError, match=match):
            config = SystemConfig(
                paradigm=Paradigm.STATIC, num_nodes=4, cores_per_node=4,
                source_instances=2, static_weights=weights,
            )
            StreamSystem(workload.build_topology(), workload, config)

    def test_fault_spec_object_rejected_at_load(self):
        # JSON text is a spec; a JSON object is not (it used to reach os.stat).
        with pytest.raises(ValueError, match="fault_spec must be a FaultSpec"):
            SystemConfig(fault_spec={"events": [{"kind": "node_crash", "time": 5}]})

    def test_multiple_sources_rejected(self):
        from repro.topology import TopologyBuilder

        builder = TopologyBuilder()
        builder.add_source("a")
        builder.add_source("b")
        builder.add_operator("op", SyntheticLogic(), upstream=["a", "b"])
        with pytest.raises(ValueError):
            StreamSystem(builder.build(), MicroBenchmarkWorkload(), SystemConfig())

    @pytest.mark.parametrize(
        # Static sizes itself to the free cores instead.
        "paradigm", [p for p in Paradigm if p is not Paradigm.STATIC],
    )
    def test_initial_demand_checked_before_placement(self, paradigm):
        from repro.runtime import PlacementError

        # 5 executors on 4 nodes x 1 core, 1 core held by the source.
        workload = MicroBenchmarkWorkload(rate=1000, num_keys=100)
        topology = workload.build_topology(executors_per_operator=5)
        config = SystemConfig(
            paradigm=paradigm, num_nodes=4, cores_per_node=1,
            source_instances=1,
        )
        with pytest.raises(
            PlacementError,
            match=r"cannot place 5 executors: only 3 free cores",
        ):
            StreamSystem(topology, workload, config)

    def test_place_on_free_cores_reports_free_cores(self):
        from repro.runtime import PlacementError

        system = make_micro(Paradigm.ELASTICUTOR)
        free = system.cluster.cores.total_free
        with pytest.raises(
            PlacementError,
            match=f"cannot place {free + 1} executors: only {free} free cores",
        ):
            system._place_on_free_cores(free + 1)


#: Runs each paradigm named on the command line in turn, in one process,
#: and prints ``paradigm collections result-json`` per run.
_RUN_PARADIGMS = """
import gc, json, sys
from repro.sweep import TrialConfig, run_trial

collect, calls = gc.collect, []
gc.collect = lambda *args: calls.append(args) or collect(*args)

def summary(paradigm):
    result, _ = run_trial(TrialConfig(paradigm=paradigm, **json.loads(sys.argv[1])))
    out = result.to_dict()
    del out["scheduler_mean_wall_seconds"]  # wall clock
    return json.dumps(out, sort_keys=True)

for paradigm in sys.argv[2:]:
    before = len(calls)
    out = summary(paradigm)
    print(paradigm, len(calls) - before, out)
"""


class TestBackToBackRuns:
    """Each finished system is one reference cycle; the next run's start
    collects the ones nothing references any more."""

    @pytest.fixture
    def collections(self, monkeypatch):
        monkeypatch.setattr(system_module, "_FINISHED", weakref.WeakSet())
        calls = []
        collect = gc.collect
        monkeypatch.setattr(
            system_module.gc, "collect", lambda *args: calls.append(args) or collect(*args)
        )
        return calls

    def test_only_a_run_after_a_finished_one_collects(self, collections):
        first = make_micro(Paradigm.STATIC)
        first.run(duration=2.0, warmup=0.5)
        assert len(collections) == 0  # a lone run has nothing to free
        make_micro(Paradigm.STATIC).run(duration=2.0, warmup=0.5)
        assert len(collections) == 1  # ``first`` is finished (and still live)

    def test_finished_system_freed_when_next_run_starts(self, collections):
        enabled = gc.isenabled()
        gc.disable()  # only the run's own collection may free it
        try:
            first = make_micro(Paradigm.ELASTICUTOR)
            first.run(duration=2.0, warmup=0.5)
            previous = weakref.ref(first)
            del first
            assert previous() is not None  # a cycle: dropping it frees nothing
            make_micro(Paradigm.ELASTICUTOR).run(duration=2.0, warmup=0.5)
        finally:
            if enabled:
                gc.enable()
        # The one full collection was the second run's, at its start.
        assert len(collections) == 1
        assert previous() is None

    def test_back_to_back_runs_match_fresh_runs(self):
        # Collecting closes the dead systems' generators and runs their
        # ``finally`` blocks: none of that may reach the next run.
        trial = json.dumps({
            "rate": 3000, "omega": 8.0, "duration": 4.0, "warmup": 1.0,
            "num_nodes": 2, "cores_per_node": 4, "source_instances": 1,
            "executors_per_operator": 2, "shards_per_executor": 8, "num_keys": 500,
        })
        paradigms = ["static", "resource-centric", "naive-ec", "elasticutor"]
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RUN_PARADIGMS, trial, *names],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for names in [paradigms] + [[p] for p in paradigms]
        ]
        outputs = [proc.communicate(timeout=300)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * len(procs)
        back_to_back = [line.split(" ", 2) for line in outputs[0].splitlines()]
        fresh = [line.split(" ", 2) for out in outputs[1:] for line in out.splitlines()]
        assert [collected for _, collected, _ in back_to_back] == ["0", "1", "1", "1"]
        assert [(name, out) for name, _, out in back_to_back] == [
            (name, out) for name, _, out in fresh
        ]


class TestWorkloadDynamicsResponse:
    def test_elasticutor_survives_shuffles(self):
        system = make_micro(Paradigm.ELASTICUTOR, rate=9000, omega=8.0)
        result = system.run(duration=40.0, warmup=15.0)
        assert result.throughput_tps == pytest.approx(9000, rel=0.1)
        # Shard reassignments actually happened in response to shuffles.
        assert len(system.reassignment_stats.records) > 0

    def test_rc_latency_degrades_with_omega(self):
        calm = make_micro(Paradigm.RC, rate=9000, omega=2.0).run(40.0, warmup=15.0)
        wild = make_micro(Paradigm.RC, rate=9000, omega=16.0).run(40.0, warmup=15.0)
        assert wild.latency["p99"] > calm.latency["p99"] * 0.5  # not better


class TestSSEApplication:
    def make_sse(self, paradigm, real_payloads=False):
        workload = SSEWorkload(
            rate=4000, num_stocks=100, batch_size=10, seed=5,
            real_payloads=real_payloads, order_cost=0.5e-3,
        )
        topology = workload.build_topology(
            executors_per_operator=4, shards_per_executor=8,
            analytics_executors=1,
        )
        config = SystemConfig(
            paradigm=paradigm, num_nodes=4, cores_per_node=8, source_instances=2,
        )
        return StreamSystem(topology, workload, config)

    @pytest.mark.parametrize(
        "paradigm", [Paradigm.STATIC, Paradigm.ELASTICUTOR, Paradigm.RC]
    )
    def test_sse_pipeline_flows_end_to_end(self, paradigm):
        system = self.make_sse(paradigm)
        result = system.run(duration=15.0, warmup=5.0)
        assert result.throughput_tps > 3000
        # Transaction records reached the sinks.
        assert len(result.sink_completions) > 0

    def test_sse_real_orderbook_produces_transactions(self):
        system = self.make_sse(Paradigm.ELASTICUTOR, real_payloads=True)
        result = system.run(duration=10.0, warmup=3.0)
        assert result.latency["count"] > 0
        # Order books accumulated in the transactor's shard state.
        transactor = system.executors_by_operator["transactor"][0]
        books = [
            value
            for store in transactor.stores.values()
            for shard_id in store.shard_ids
            for value in store.get(shard_id).data.values()
        ]
        assert books, "no order books created"
        from repro.logic import OrderBook

        assert all(isinstance(book, OrderBook) for book in books)

    @pytest.mark.parametrize(
        ("paradigm", "expected"),
        [
            (Paradigm.ELASTICUTOR, {
                "price_alarm": [17, 0, 0],
                "circuit_breaker": [0, 0, 0],
                "volume_spike": [25, 24, 1],
                "fraud_flags": 3,
            }),
            (Paradigm.RC, {
                "price_alarm": [0],
                "circuit_breaker": [0],
                "volume_spike": [12],
                "fraud_flags": 3,
            }),
        ],
    )
    def test_real_payload_analytics_outputs_pinned(self, paradigm, expected):
        """Per-replica alarm and fraud outputs of a multi-replica run with
        real order books; any change to how replicas hold their logic
        state must leave them untouched."""
        workload = SSEWorkload(
            rate=3000, num_stocks=300, batch_size=4, seed=7,
            real_payloads=True, order_cost=0.5e-3,
        )
        topology = workload.build_topology(
            executors_per_operator=4, shards_per_executor=16,
            analytics_executors=3,
        )
        config = SystemConfig(
            paradigm=paradigm, num_nodes=8, cores_per_node=6, source_instances=2,
        )
        system = StreamSystem(topology, workload, config)
        system.run(duration=10.0, warmup=3.0)
        by_op = system.executors_by_operator
        outputs = {
            name: [len(executor.logic.alarms) for executor in by_op[name]]
            for name in ("price_alarm", "circuit_breaker", "volume_spike")
        }
        outputs["fraud_flags"] = sum(
            len(executor.logic.flags) for executor in by_op["fraud_detection"]
        )
        assert outputs == expected


class TestLogicReplicas:
    """Executor replicas share an operator's read-only arrays and copy the
    rest of its logic state."""

    REPLICAS = 4

    def make_topology(self):
        workload = SSEWorkload(rate=4000, num_stocks=2000, batch_size=10, seed=5)
        topology = workload.build_topology(
            executors_per_operator=4, shards_per_executor=8,
            analytics_executors=self.REPLICAS,
        )
        return workload, topology

    def make_system(self, paradigm, workload, topology):
        config = SystemConfig(
            paradigm=paradigm, num_nodes=8, cores_per_node=7, source_instances=2,
        )
        return StreamSystem(topology, workload, config)

    def assert_thresholds_shared(self, original, replicas):
        for replica in replicas:
            assert replica is not original
            assert np.shares_memory(replica.thresholds, original.thresholds)
            with pytest.raises(ValueError):
                replica.thresholds[0] = 0.0
            assert replica.alarms is not original.alarms
        assert len({id(replica.alarms) for replica in replicas}) == len(replicas)

    @pytest.mark.parametrize(
        "paradigm", [Paradigm.ELASTICUTOR, Paradigm.STATIC, Paradigm.RC]
    )
    def test_replicas_share_read_only_thresholds(self, paradigm):
        workload, topology = self.make_topology()
        system = self.make_system(paradigm, workload, topology)
        for name in ("price_alarm", "circuit_breaker", "volume_spike"):
            replicas = [
                executor.logic for executor in system.executors_by_operator[name]
            ]
            assert len(replicas) == self.REPLICAS
            self.assert_thresholds_shared(topology.spec(name).logic, replicas)

    def test_writable_arrays_are_copied_per_replica(self):
        workload, topology = self.make_topology()
        logic = topology.spec("momentum").logic
        logic.counts = np.zeros(16)
        system = self.make_system(Paradigm.ELASTICUTOR, workload, topology)
        arrays = [logic.counts] + [
            executor.logic.counts
            for executor in system.executors_by_operator["momentum"]
        ]
        for i, array in enumerate(arrays):
            for other in arrays[i + 1:]:
                assert not np.shares_memory(array, other)
