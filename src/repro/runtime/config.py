"""System-level configuration."""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.executors.config import ExecutorConfig


class Paradigm(enum.Enum):
    """The execution paradigms compared in the paper (Table 1 + §5.4)."""

    STATIC = "static"
    RC = "resource-centric"
    ELASTICUTOR = "elasticutor"
    NAIVE_EC = "naive-ec"


@dataclasses.dataclass
class SystemConfig:
    """Cluster, scheduler and runtime parameters of one experiment.

    Defaults mirror the paper's testbed (32 nodes x 8 cores, 1 Gbps) —
    benchmarks usually scale ``num_nodes``/``cores_per_node`` down and note
    it in EXPERIMENTS.md.
    """

    paradigm: Paradigm = Paradigm.ELASTICUTOR
    num_nodes: int = 32
    cores_per_node: int = 8
    bandwidth_bps: float = 1e9
    network_latency: float = 0.5e-3
    #: Network realism profile (docs/network.md): a
    #: :class:`repro.cluster.NetworkProfile`, a builtin name
    #: (``lan`` | ``wan`` | ``cloud``), a JSON spec/path, or None —
    #: the plain constant-latency fabric, bit-identical to older builds.
    network_profile: typing.Optional[typing.Any] = None
    #: Source instances (the upstream executors of the first operator).
    source_instances: int = 8
    #: Scheduler cadence and model target (Elasticutor / naive-EC).
    scheduler_interval: float = 1.0
    latency_target: float = 0.05
    phi: float = 512 * 1024.0
    #: Scheduling strategy for the executor-centric paradigms
    #: (docs/scheduling.md): "reactive" (the paper's scheduler),
    #: "predictive" (forecast-driven allocation + DRR placement), or
    #: "naive-ec" (forced when the paradigm is NAIVE_EC).
    scheduler_strategy: str = "reactive"
    #: Forecast knobs (predictive): level / trend / seasonal
    #: smoothing factors, season length in scheduler rounds (0 = no
    #: seasonality), and the forecast horizon in rounds.
    forecast_alpha: float = 0.5
    forecast_beta: float = 0.3
    forecast_gamma: float = 0.0
    forecast_season: int = 0
    forecast_horizon: int = 3
    #: RC manager cadence.
    rc_manage_interval: float = 1.0
    #: Static paradigm: executors per operator; None = fill the cluster.
    static_executors_per_operator: typing.Optional[int] = None
    #: Static paradigm: optional per-operator weights for splitting the
    #: core budget (e.g. give the transactor half the cluster).  A fair
    #: "well-tuned" static deployment; operators not listed get weight 1.
    static_weights: typing.Optional[typing.Dict[str, float]] = None
    executor: ExecutorConfig = dataclasses.field(default_factory=ExecutorConfig)
    #: Sampling period for instantaneous-throughput time series.
    sample_interval: float = 0.5
    #: Enable the hybrid framework (paper §4.2 future work): coarse
    #: operator-level executor split/merge on top of rapid elasticity.
    #: Elasticutor/naive-EC only.
    enable_hybrid: bool = False
    #: Hybrid controller cadence (the paper suggests minutes; scaled down
    #: with everything else here).
    hybrid_interval: float = 20.0
    #: Latency-breakdown tracing: attach a trace to every Nth source batch
    #: (0 = off).  Completed traces land in ``SystemResult.traces``.
    trace_every: int = 0
    #: Deterministic fault schedule: a :class:`repro.faults.FaultSpec`,
    #: DSL/JSON text, or a path to a spec file (None = no faults).
    fault_spec: typing.Optional[typing.Any] = None
    #: Seconds between a failure and the start of recovery (the loss
    #: window: work destroyed in it dead-letters with exact counters).
    detection_delay: float = 0.25
    #: Rebuild rate for state whose only replica died (replay/recompute).
    state_rebuild_bytes_per_s: float = 100e6
    #: Extra restart penalty for the static paradigm: with no elasticity
    #: machinery a crash means a full redeploy of the process.
    static_restart_seconds: float = 5.0
    #: Enable the telemetry layer (event bus, control-plane spans, metric
    #: registry + sampler).  Off by default: disabled runs take the no-op
    #: bus and spawn no sampler, so behavior and results are bit-identical
    #: to a build without telemetry.
    telemetry: bool = False
    #: Metric-registry sampling period (virtual seconds).
    telemetry_sample_interval: float = 0.5
    #: Ring-buffer capacity per telemetry series (oldest points drop).
    telemetry_ring_capacity: int = 4096
    #: Sample per-shard load series too (per-executor series are always
    #: sampled when telemetry is on).
    telemetry_per_shard: bool = True
    #: Relative-error bound of the per-tuple latency sketches
    #: (:mod:`repro.telemetry.sketch`): reported p50/p95/p99 are within
    #: this fraction of the exact sorted-percentile answer.
    telemetry_sketch_accuracy: float = 0.01
    #: Flight-recorder ring capacity: the most recent events/spans/samples
    #: kept for the post-mortem dump (telemetry runs only).
    flight_recorder_capacity: int = 1024
    #: Directory the post-mortem lands in when the run dies (overridable
    #: with the ``REPRO_FLIGHT_DIR`` environment variable).
    flight_recorder_dir: str = "flight-recorder"

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.cores_per_node < 1:
            raise ValueError("cluster must have at least one node and core")
        if self.source_instances < 1:
            raise ValueError("need at least one source instance")
        if self.scheduler_interval <= 0 or self.rc_manage_interval <= 0:
            raise ValueError("scheduler intervals must be positive")
        from repro.scheduler.strategies import STRATEGY_NAMES

        if self.scheduler_strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"scheduler_strategy must be one of {STRATEGY_NAMES}, "
                f"got {self.scheduler_strategy!r}"
            )
        if not 0.0 < self.forecast_alpha <= 1.0:
            raise ValueError("forecast_alpha must be in (0, 1]")
        if not 0.0 <= self.forecast_beta <= 1.0:
            raise ValueError("forecast_beta must be in [0, 1]")
        if not 0.0 <= self.forecast_gamma <= 1.0:
            raise ValueError("forecast_gamma must be in [0, 1]")
        if self.forecast_season < 0 or self.forecast_season == 1:
            raise ValueError("forecast_season must be 0 (off) or >= 2")
        if self.forecast_horizon < 1:
            raise ValueError("forecast_horizon must be >= 1")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.telemetry_sample_interval <= 0:
            raise ValueError("telemetry_sample_interval must be positive")
        if self.telemetry_ring_capacity < 8:
            raise ValueError("telemetry_ring_capacity must be >= 8")
        if not 0.0 < self.telemetry_sketch_accuracy < 1.0:
            raise ValueError("telemetry_sketch_accuracy must be in (0, 1)")
        if self.flight_recorder_capacity < 1:
            raise ValueError("flight_recorder_capacity must be >= 1")
        if self.detection_delay < 0:
            raise ValueError("detection_delay must be >= 0")
        if self.state_rebuild_bytes_per_s <= 0:
            raise ValueError("state_rebuild_bytes_per_s must be positive")
        if self.static_restart_seconds < 0:
            raise ValueError("static_restart_seconds must be >= 0")
        if self.network_profile is not None:
            from repro.cluster.profile import NetworkProfile

            if not isinstance(self.network_profile, NetworkProfile):
                self.network_profile = NetworkProfile.load(self.network_profile)
        if self.fault_spec is not None:
            from repro.faults.spec import FaultSpec, FaultSpecError

            if not hasattr(self.fault_spec, "events"):
                self.fault_spec = FaultSpec.load(self.fault_spec)
            for event in self.fault_spec.events:
                if event.node is not None and not 0 <= event.node < self.num_nodes:
                    raise FaultSpecError(
                        f"fault {event.kind.value}@{event.time:g} targets node "
                        f"{event.node}, but the cluster has nodes 0..{self.num_nodes - 1}"
                    )

    @property
    def total_cores(self) -> int:
        return self.num_nodes * self.cores_per_node
