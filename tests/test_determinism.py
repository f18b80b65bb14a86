"""Determinism: identical seeds must give identical runs.

The simulation kernel breaks event-time ties by schedule order and every
random choice flows from seeded generators, so two runs of the same
configuration must agree exactly — the property that makes experiments
reproducible and regressions bisectable.
"""

import pytest

from repro import FaultSpec, MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig


def run_once(paradigm, seed, fault_spec=None, net_profile=None):
    workload = MicroBenchmarkWorkload(
        rate=5000, num_keys=1000, skew=0.8, omega=4.0, batch_size=20, seed=seed
    )
    topology = workload.build_topology(
        executors_per_operator=4, shards_per_executor=16
    )
    config = SystemConfig(
        paradigm=paradigm, num_nodes=4, cores_per_node=4, source_instances=2,
        fault_spec=fault_spec, network_profile=net_profile,
    )
    system = StreamSystem(topology, workload, config)
    result = system.run(duration=15.0, warmup=5.0)
    return result


def fingerprint(result):
    return (
        result.throughput_tps,
        result.latency["mean"],
        result.latency["p99"],
        result.migration_bytes,
        result.remote_task_bytes,
        result.stream_bytes,
        result.processed_tuples,
        tuple(result.throughput_series.values),
        tuple(sorted(result.recovery.items())),
        result.time_to_steady_state,
    )


class TestDeterminism:
    @pytest.mark.parametrize(
        "paradigm", [Paradigm.STATIC, Paradigm.RC, Paradigm.ELASTICUTOR]
    )
    def test_same_seed_same_run(self, paradigm):
        first = fingerprint(run_once(paradigm, seed=7))
        second = fingerprint(run_once(paradigm, seed=7))
        assert first == second

    def test_different_seed_different_run(self):
        first = fingerprint(run_once(Paradigm.ELASTICUTOR, seed=7))
        second = fingerprint(run_once(Paradigm.ELASTICUTOR, seed=8))
        assert first != second

    @pytest.mark.parametrize("paradigm", [Paradigm.ELASTICUTOR, Paradigm.RC])
    def test_same_seed_same_run_under_faults(self, paradigm):
        """Fault injection is pure virtual-time: recovery is replayable."""
        spec = (
            "link_degrade@6:node=1,factor=0.25,duration=2;"
            f"node_crash@8:node=3"
        )
        first = fingerprint(run_once(paradigm, seed=7, fault_spec=spec))
        second = fingerprint(run_once(paradigm, seed=7, fault_spec=spec))
        assert first == second
        # The fault actually fired, so this is not vacuous.
        recovery = dict(first[-2])
        assert recovery["faults_injected"] == 2

    def test_fault_spec_changes_run(self):
        baseline = fingerprint(run_once(Paradigm.ELASTICUTOR, seed=7))
        faulted = fingerprint(
            run_once(Paradigm.ELASTICUTOR, seed=7, fault_spec="node_crash@8:node=3")
        )
        assert baseline != faulted

    def test_random_fault_spec_deterministic(self):
        first = FaultSpec.random(seed=11, duration=30.0, num_nodes=4)
        second = FaultSpec.random(seed=11, duration=30.0, num_nodes=4)
        assert first.to_dsl() == second.to_dsl()
        assert first.to_dsl() != FaultSpec.random(
            seed=12, duration=30.0, num_nodes=4
        ).to_dsl()

    @pytest.mark.parametrize("net_profile", ["wan", "cloud"])
    def test_same_seed_same_run_under_jitter(self, net_profile):
        """The fabric's jitter stream is a seeded PCG64 generator, so
        stochastic latency (uniform under wan, lognormal under cloud) and
        heterogeneous node classes replay exactly."""
        result = run_once(Paradigm.ELASTICUTOR, seed=7, net_profile=net_profile)
        first = fingerprint(result)
        second = fingerprint(
            run_once(Paradigm.ELASTICUTOR, seed=7, net_profile=net_profile)
        )
        assert first == second
        if net_profile == "cloud":
            # Shard churn really moves state over the jittered fabric.
            assert result.migration_bytes > 0

    def test_net_profile_changes_run(self):
        plain = fingerprint(run_once(Paradigm.ELASTICUTOR, seed=7))
        wan = fingerprint(run_once(Paradigm.ELASTICUTOR, seed=7, net_profile="wan"))
        assert plain != wan

    def test_latency_spike_deterministic(self):
        spec = "latency_spike@6:node=1,factor=8,duration=3"
        first = fingerprint(
            run_once(Paradigm.ELASTICUTOR, seed=7, fault_spec=spec,
                     net_profile="wan")
        )
        second = fingerprint(
            run_once(Paradigm.ELASTICUTOR, seed=7, fault_spec=spec,
                     net_profile="wan")
        )
        assert first == second
        recovery = dict(first[-2])
        assert recovery["faults_injected"] == 1

    def test_reassignment_trace_deterministic(self):
        def trace(seed):
            workload = MicroBenchmarkWorkload(
                rate=5000, num_keys=1000, skew=0.8, omega=8.0,
                batch_size=20, seed=seed,
            )
            topology = workload.build_topology(
                executors_per_operator=4, shards_per_executor=16
            )
            system = StreamSystem(
                topology, workload,
                SystemConfig(paradigm=Paradigm.ELASTICUTOR, num_nodes=4,
                             cores_per_node=4, source_instances=2),
            )
            system.run(duration=15.0, warmup=5.0)
            return [
                (r.time, r.shard_id, r.inter_node, r.sync_seconds)
                for r in system.reassignment_stats.records
            ]

        assert trace(3) == trace(3)
