"""Network realism: profiles, latency distributions, heterogeneous nodes.

Covers the realism-configurable fabric (docs/network.md): profile
parsing/round-tripping, the seeded per-fabric jitter stream and its
``rng_state`` serialization, distribution statistics, per-node bandwidth
and latency classes, TCP-style FIFO ordering under jitter, the seconds-
based scheduler cost model, and end-to-end profile threading through
``SystemConfig``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BUILTIN_PROFILES,
    Cluster,
    LatencySpec,
    NetworkFabric,
    NetworkProfile,
    NodeProfile,
)
from repro.cluster.network import DRAW_BLOCK
from repro.scheduler.assignment import AssignmentInput
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_fabric(env, profile, num_nodes=2, bandwidth=1e6):
    return NetworkFabric(
        env,
        num_nodes=num_nodes,
        bandwidth_bytes_per_s=bandwidth,
        profile=profile,
        node_profiles=profile.node_profiles(num_nodes),
    )


class TestLatencySpec:
    def test_defaults_are_plain_lan(self):
        spec = LatencySpec()
        assert spec.distribution == "constant"
        assert spec.mean() == pytest.approx(0.5e-3)
        assert spec.is_constant()

    def test_mean_is_base_for_every_distribution(self):
        for spec in (
            LatencySpec("constant", base=2e-3),
            LatencySpec("uniform", base=2e-3, jitter=1e-3),
            LatencySpec("lognormal", base=2e-3, sigma=1.0),
        ):
            assert spec.mean() == pytest.approx(2e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencySpec("gaussian")
        with pytest.raises(ValueError):
            LatencySpec(base=-1.0)
        with pytest.raises(ValueError):
            LatencySpec("uniform", base=1e-3, jitter=2e-3)  # negative draws
        with pytest.raises(ValueError):
            LatencySpec("lognormal", sigma=-0.5)

    def test_round_trip(self):
        spec = LatencySpec("lognormal", base=5e-3, sigma=1.0)
        assert LatencySpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            LatencySpec.from_dict({"distribution": "constant", "bogus": 1})


class TestNodeProfile:
    def test_defaults_are_plain(self):
        profile = NodeProfile()
        assert profile.speed_factor == 1.0
        assert profile.egress_factor == 1.0
        assert profile.latency_factor == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeProfile(egress_factor=0.0)
        with pytest.raises(ValueError):
            NodeProfile(latency_factor=-1.0)

    def test_round_trip(self):
        profile = NodeProfile(name="burstable", egress_factor=0.5)
        assert NodeProfile.from_dict(profile.to_dict()) == profile


class TestNetworkProfile:
    def test_builtins_cover_the_crossover_regimes(self):
        assert set(BUILTIN_PROFILES) == {"lan", "wan", "cloud"}
        assert BUILTIN_PROFILES["lan"].latency.distribution == "constant"
        wan = BUILTIN_PROFILES["wan"].latency
        assert (wan.distribution, wan.base, wan.jitter) == ("uniform", 25e-3, 10e-3)
        cloud = BUILTIN_PROFILES["cloud"]
        assert cloud.latency.distribution == "lognormal"
        assert len(cloud.classes) == 2  # standard + burstable

    def test_load_accepts_name_dict_json_and_file(self, tmp_path):
        assert NetworkProfile.load("wan") is BUILTIN_PROFILES["wan"]
        as_dict = BUILTIN_PROFILES["cloud"].to_dict()
        assert NetworkProfile.load(as_dict) == BUILTIN_PROFILES["cloud"]
        assert NetworkProfile.load(json.dumps(as_dict)) == BUILTIN_PROFILES["cloud"]
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(as_dict))
        assert NetworkProfile.load(str(path)) == BUILTIN_PROFILES["cloud"]
        with pytest.raises(ValueError):
            NetworkProfile.load("marsnet")

    def test_node_profiles_round_robin_and_explicit(self):
        a, b = NodeProfile(name="a"), NodeProfile(name="b", egress_factor=0.5)
        profile = NetworkProfile(classes=(a, b))
        names = [p.name for p in profile.node_profiles(5)]
        assert names == ["a", "b", "a", "b", "a"]
        explicit = NetworkProfile(classes=(a, b), assignment=(1, 1, 0))
        names = [p.name for p in explicit.node_profiles(4)]
        assert names == ["b", "b", "a", "b"]
        assert NetworkProfile().node_profiles(4) is None  # homogeneous

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile(bandwidth_bps=0.0)
        with pytest.raises(ValueError):
            NetworkProfile(assignment=(0,))  # no classes
        with pytest.raises(ValueError):
            NetworkProfile(classes=(NodeProfile(),), assignment=(3,))

    @pytest.mark.parametrize("bad, names", [
        ("[]", "NetworkProfile must be an object, got []"),
        ('{"seed": "x"}', "seed must be an integer, got 'x'"),
        ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
        ('{"latency": {"base": NaN}}', "base must be a finite number, got nan"),
        ('{"bandwidth_bps": Infinity}', "bandwidth_bps must be a finite number"),
        ('{"latency": 5}', "latency must be an object, got 5"),
        ('{"latency": {"sigma": "x"}}', "sigma must be a finite number, got 'x'"),
        ('{"classes": 3}', "classes must be a list, got 3"),
        ('{"classes": [5]}', "NodeProfile must be an object, got 5"),
        ('{"classes": [{"speed_factor": NaN}]}', "speed_factor must be a finite number"),
        ('{"classes": [{}], "assignment": ["0"]}', "assignment must be an integer"),
        ('{"name": 5}', "profile name must be a string, got 5"),
        ("[" * 100_000, "nests too deeply"),
    ])
    def test_malformed_input_names_the_field(self, bad, names):
        with pytest.raises(ValueError) as exc_info:
            NetworkProfile.load(bad)
        assert names in str(exc_info.value)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.text(alphabet='{}[]":, 0123456789.-eE' "latencybsjtrgmiopwdNI"),
            st.dictionaries(
                st.sampled_from([
                    "name", "latency", "bandwidth_bps", "classes", "assignment",
                    "seed", "distribution", "base", "jitter", "sigma",
                    "speed_factor", "egress_factor",
                ]),
                st.recursive(
                    st.none() | st.booleans() | st.integers(-3, 5)
                    | st.floats() | st.sampled_from(["", "lan", "uniform", "x"]),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(
                        st.sampled_from(["base", "jitter", "sigma", "distribution",
                                         "name", "speed_factor", "bogus"]),
                        inner, max_size=3,
                    ),
                    max_leaves=6,
                ),
                max_size=4,
            ).map(json.dumps),
        )
    )
    @example('{"classes": 3}')
    @example('{"latency": {"distribution": "uniform", "base": 1, "jitter": 2}}')
    def test_any_text_loads_or_raises_value_error(self, text):
        try:
            profile = NetworkProfile.load(text)
        except ValueError:
            return
        # Whatever loads round-trips through its dict form.
        assert NetworkProfile.from_dict(profile.to_dict()) == profile

    def test_cli_reports_bad_profile_as_usage_error(self, capsys):
        from repro.cli import main

        argv = ["run", "--duration", "1", "--warmup", "0", "--nodes", "4"]
        assert main([*argv, "--net-profile", '{"classes": 3}']) == 2
        err = capsys.readouterr().err
        assert "repro: error: classes must be a list, got 3" in err
        assert "Traceback" not in err


class TestJitterStream:
    def test_uniform_draws_stay_in_band_and_average_to_base(self, env):
        profile = NetworkProfile(
            latency=LatencySpec("uniform", base=25e-3, jitter=10e-3), seed=5
        )
        fabric = make_fabric(env, profile)
        draws = [fabric._draw_latency(0, 1) for _ in range(2000)]
        assert min(draws) >= 15e-3
        assert max(draws) <= 35e-3
        assert sum(draws) / len(draws) == pytest.approx(25e-3, rel=0.02)

    def test_lognormal_tail_is_positive_and_mean_anchored(self, env):
        profile = NetworkProfile(
            latency=LatencySpec("lognormal", base=5e-3, sigma=1.0), seed=5
        )
        fabric = make_fabric(env, profile)
        draws = [fabric._draw_latency(0, 1) for _ in range(20000)]
        assert min(draws) > 0.0
        assert max(draws) > 20e-3  # the heavy tail exists
        assert sum(draws) / len(draws) == pytest.approx(5e-3, rel=0.05)

    def test_same_seed_same_draws(self, env):
        profile = BUILTIN_PROFILES["wan"]
        first = make_fabric(Environment(), profile)
        second = make_fabric(Environment(), profile)
        assert [first._draw_latency(0, 1) for _ in range(64)] == [
            second._draw_latency(0, 1) for _ in range(64)
        ]

    def test_rng_state_round_trip(self, env):
        profile = BUILTIN_PROFILES["wan"]
        fabric = make_fabric(env, profile)
        for _ in range(10):
            fabric._draw_latency(0, 1)
        state = fabric.rng_state()
        expected = [fabric._draw_latency(0, 1) for _ in range(16)]
        fabric.set_rng_state(state)
        assert [fabric._draw_latency(0, 1) for _ in range(16)] == expected

    def test_plain_fabric_never_draws(self, env):
        fabric = NetworkFabric(env, num_nodes=2, bandwidth_bytes_per_s=1e6)
        before = fabric.rng_state()
        fabric.transfer(0, 1, 1000)
        env.run()
        assert fabric.rng_state() == before

    def test_fifo_order_preserved_under_jitter(self, env):
        """TCP semantics: a lucky low draw must not overtake an earlier
        message on the same ordered pair."""
        profile = NetworkProfile(
            latency=LatencySpec("lognormal", base=5e-3, sigma=2.0), seed=3
        )
        fabric = make_fabric(env, profile)
        deliveries = []
        for i in range(200):
            fabric.transfer(0, 1, 10).callbacks.append(
                lambda ev, i=i: deliveries.append((i, env.now))
            )
        env.run()
        order = [i for i, _ in deliveries]
        times = [t for _, t in deliveries]
        assert order == sorted(order)
        assert times == sorted(times)


JITTERED = [
    pytest.param(LatencySpec("uniform", base=25e-3, jitter=10e-3), "random", id="uniform"),
    pytest.param(
        LatencySpec("lognormal", base=5e-3, sigma=1.0), "standard_normal", id="lognormal"
    ),
]


def reference_stream(seed):
    return np.random.Generator(np.random.PCG64(seed))


def reference_latency(spec, draw):
    """Today's scalar latency expression for one raw draw."""
    if spec.distribution == "uniform":
        return spec.base + spec.jitter * (2.0 * draw - 1.0)
    sigma = spec.sigma
    return spec.base * math.exp(sigma * draw - 0.5 * sigma * sigma)


class TestBlockDraws:
    """Jitter is read from the stream a block at a time, yet every value,
    ``rng_state`` and resume matches one scalar draw per latency."""

    @pytest.mark.parametrize("spec, method", JITTERED)
    def test_latencies_equal_scalar_draws_across_a_block_boundary(
        self, env, spec, method
    ):
        fabric = make_fabric(env, NetworkProfile(latency=spec, seed=11))
        reference = reference_stream(11)
        count = DRAW_BLOCK * 2 + 7
        expected = [
            reference_latency(spec, float(getattr(reference, method)()))
            for _ in range(count)
        ]
        assert [fabric._draw_latency(0, 1) for _ in range(count)] == expected
        assert fabric.rng_state() == reference.bit_generator.state

    @pytest.mark.parametrize("used", [1, DRAW_BLOCK // 2, DRAW_BLOCK + 3])
    @pytest.mark.parametrize("spec, method", JITTERED)
    def test_rng_state_mid_block_counts_only_used_draws(
        self, env, spec, method, used
    ):
        fabric = make_fabric(env, NetworkProfile(latency=spec, seed=11))
        reference = reference_stream(11)
        for _ in range(used):
            fabric._draw_latency(0, 1)
            getattr(reference, method)()
        assert 0 < fabric._drawn < len(fabric._block)  # mid-block
        assert fabric.rng_state() == reference.bit_generator.state

    @pytest.mark.parametrize("spec, method", JITTERED)
    def test_set_rng_state_mid_block_resumes_the_sequence(self, env, spec, method):
        fabric = make_fabric(env, NetworkProfile(latency=spec, seed=11))
        for _ in range(DRAW_BLOCK // 2):
            fabric._draw_latency(0, 1)
        state = fabric.rng_state()
        expected = [fabric._draw_latency(0, 1) for _ in range(DRAW_BLOCK)]
        resumed = make_fabric(Environment(), NetworkProfile(latency=spec, seed=99))
        resumed.set_rng_state(state)
        assert [resumed._draw_latency(0, 1) for _ in range(DRAW_BLOCK)] == expected
        fabric.set_rng_state(state)
        assert [fabric._draw_latency(0, 1) for _ in range(DRAW_BLOCK)] == expected


class TestFifoAcrossLatencyChanges:
    """A spike starting or ending on a constant-latency fabric must not
    let a later transfer overtake an earlier one on the same pair."""

    def deliveries(self, first_spike, second_spike, gap):
        env = Environment()
        fabric = NetworkFabric(env, 4)
        landed = []

        def send(label):
            fabric.transfer(0, 1, 100).callbacks.append(
                lambda _ev: landed.append((label, env.now))
            )

        def script():
            for node in (0, 1):  # the larger endpoint factor applies
                fabric.set_latency_spike(node, first_spike)
            send("first")
            yield env.timeout(gap)
            for node in (0, 1):
                fabric.set_latency_spike(node, second_spike)
            send("second")

        env.process(script())
        env.run()
        return landed

    def test_restoring_a_spike_does_not_let_later_transfers_overtake(self):
        landed = self.deliveries(8.0, 1.0, gap=1e-3)
        assert [label for label, _ in landed] == ["first", "second"]
        assert landed[0][1] == pytest.approx(4.0008e-3)
        assert landed[1][1] == landed[0][1]  # held behind the first

    def test_a_faster_spike_after_flat_transfers_does_not_overtake(self):
        landed = self.deliveries(1.0, 0.1, gap=0.1e-3)
        assert [label for label, _ in landed] == ["first", "second"]
        assert landed[0][1] == pytest.approx(0.5008e-3)
        assert landed[1][1] == landed[0][1]  # held behind the first

    def test_flat_path_returns_once_spiked_deliveries_land(self):
        env = Environment()
        fabric = NetworkFabric(env, 4)
        fabric.set_latency_spike(1, 8.0)
        fabric.transfer(0, 1, 100)
        fabric.set_latency_spike(1, 1.0)
        assert not fabric._flat_latency  # a spiked delivery is in flight
        env.run()
        fabric.transfer(0, 1, 100)
        assert fabric._flat_latency


class TestHeterogeneousFabric:
    def test_asymmetric_bandwidth_classes(self, env):
        burstable = NodeProfile(name="b", egress_factor=0.5, ingress_factor=0.25)
        profile = NetworkProfile(
            classes=(NodeProfile(), burstable), assignment=(0, 1)
        )
        fabric = make_fabric(env, profile, num_nodes=2, bandwidth=1e6)
        # node0 -> node1: min(egress 1e6, ingress 0.25e6) = 0.25e6
        assert fabric.transfer_duration_estimate(0, 1, 1e6) == pytest.approx(
            4.0 + 0.5e-3
        )
        # node1 -> node0: min(egress 0.5e6, ingress 1e6) = 0.5e6
        assert fabric.transfer_duration_estimate(1, 0, 1e6) == pytest.approx(
            2.0 + 0.5e-3
        )

    def test_latency_class_scales_by_slower_endpoint(self, env):
        slow = NodeProfile(name="slow", latency_factor=3.0)
        profile = NetworkProfile(
            latency=LatencySpec("constant", base=2e-3),
            classes=(NodeProfile(), slow),
            assignment=(0, 1),
        )
        fabric = make_fabric(env, profile, num_nodes=2)
        assert fabric.expected_latency(0, 1) == pytest.approx(6e-3)
        assert fabric.expected_latency(1, 0) == pytest.approx(6e-3)
        done = []
        fabric.transfer(0, 1, 0).callbacks.append(lambda ev: done.append(env.now))
        env.run()
        assert done[0] == pytest.approx(6e-3)

    def test_latency_spike_multiplies_and_restores(self, env):
        profile = NetworkProfile(latency=LatencySpec("constant", base=1e-3))
        fabric = make_fabric(env, profile)
        fabric.set_latency_spike(1, 10.0)
        assert fabric.expected_latency(0, 1) == pytest.approx(10e-3)
        fabric.set_latency_spike(1, 1.0)
        assert fabric.expected_latency(0, 1) == pytest.approx(1e-3)
        with pytest.raises(ValueError):
            fabric.set_latency_spike(0, 0.0)

    def test_cluster_applies_speed_and_bandwidth_overrides(self, env):
        profile = NetworkProfile(
            bandwidth_bps=8e6,
            classes=(NodeProfile(), NodeProfile(name="slow", speed_factor=0.5)),
        )
        cluster = Cluster(env, num_nodes=2, cores_per_node=2, network_profile=profile)
        assert cluster.network_profile is profile
        assert cluster.speed(0) == 1.0
        assert cluster.speed(1) == 0.5
        assert cluster.node(1).profile.name == "slow"
        # 8e6 bits/s -> 1e6 bytes/s links
        assert cluster.network.transfer_duration_estimate(0, 1, 1e6) == pytest.approx(
            1.0 + cluster.network.base_latency
        )

    def test_cluster_resolves_profile_names(self, env):
        cluster = Cluster(env, num_nodes=2, cores_per_node=2, network_profile="wan")
        assert cluster.network_profile.name == "wan"
        assert cluster.network.latency_spec.jitter == pytest.approx(10e-3)


class TestExpectedDurationCostModel:
    def test_expected_latency_is_distribution_mean(self, env):
        profile = BUILTIN_PROFILES["wan"]
        fabric = make_fabric(env, profile)
        assert fabric.expected_latency(0, 1) == pytest.approx(25e-3)
        assert fabric.transfer_duration_estimate(0, 1, 1e6) == pytest.approx(
            1.0 + 25e-3
        )

    def test_assignment_costs_convert_to_seconds(self, env):
        profile = NetworkProfile(latency=LatencySpec("constant", base=10e-3))
        fabric = make_fabric(env, profile, num_nodes=3, bandwidth=1e6)
        inp = AssignmentInput(
            targets={"ex": 2},
            current={"ex": {0: 1}},
            local_node={"ex": 0},
            state_bytes={"ex": 1e6},
            data_rates={"ex": 0.0},
            node_capacity={0: 2, 1: 2, 2: 2},
            transfer_seconds=fabric.transfer_duration_estimate,
        )
        # Alloc on a remote node: moved bytes priced over the fabric.
        moved = 1e6 * (1 - 0) / (1 * 2)  # _alloc_cost(state, 1, 0)
        assert inp.alloc_cost("ex", 1, 1, 0) == pytest.approx(
            fabric.transfer_duration_estimate(0, 1, moved)
        )
        # Without a fabric the cost stays in raw bytes (bit-compat).
        plain = AssignmentInput(
            targets={"ex": 2},
            current={"ex": {0: 1}},
            local_node={"ex": 0},
            state_bytes={"ex": 1e6},
            data_rates={"ex": 0.0},
            node_capacity={0: 2, 1: 2, 2: 2},
        )
        assert plain.alloc_cost("ex", 1, 1, 0) == pytest.approx(moved)

    def test_dealloc_cost_of_last_core_stays_infinite(self, env):
        profile = NetworkProfile(latency=LatencySpec("constant", base=10e-3))
        fabric = make_fabric(env, profile, num_nodes=2, bandwidth=1e6)
        inp = AssignmentInput(
            targets={"ex": 1},
            current={"ex": {1: 1}},
            local_node={"ex": 0},
            state_bytes={"ex": 1e6},
            data_rates={"ex": 0.0},
            node_capacity={0: 1, 1: 1},
            transfer_seconds=fabric.transfer_duration_estimate,
        )
        assert inp.dealloc_cost("ex", 1, 1, 1) == float("inf")


class TestSystemThreading:
    def run_micro(self, profile=None):
        from repro import MicroBenchmarkWorkload, Paradigm, StreamSystem, SystemConfig

        workload = MicroBenchmarkWorkload(
            rate=3000, num_keys=500, skew=0.8, omega=4.0, seed=9
        )
        topology = workload.build_topology(
            executors_per_operator=4, shards_per_executor=8
        )
        config = SystemConfig(
            paradigm=Paradigm.ELASTICUTOR,
            num_nodes=3,
            cores_per_node=4,
            source_instances=2,
            network_profile=profile,
        )
        system = StreamSystem(topology, workload, config)
        return system, system.run(duration=8.0, warmup=2.0)

    def test_config_normalizes_profile_strings(self):
        from repro import SystemConfig

        config = SystemConfig(network_profile="cloud")
        assert isinstance(config.network_profile, NetworkProfile)
        assert config.network_profile.name == "cloud"

    def test_wan_profile_shows_up_in_latency(self):
        _, plain = self.run_micro(None)
        system, wan = self.run_micro("wan")
        assert system.cluster.network_profile.name == "wan"
        # One-way 25ms links dominate the sub-ms LAN pipeline latency.
        assert wan.latency["p50"] > plain.latency["p50"] + 20e-3
        assert wan.processed_tuples > 0

    def test_scheduler_uses_seconds_cost_model_under_profile(self):
        system, _ = self.run_micro("wan")
        assert system.scheduler is not None
        network = system.cluster.network
        assert network.profile is not None
        # The estimate the scheduler wires in prices wan's mean latency.
        estimate = network.transfer_duration_estimate(0, 1, 0.0)
        assert estimate == pytest.approx(25e-3)
