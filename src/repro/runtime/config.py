"""System-level configuration."""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.executors.config import ExecutorConfig
from repro.fields import COUNT, INDEX, NON_NEGATIVE, POSITIVE, check_fields, unknown_keys

#: Each numeric field's load rule (repro.fields).
_RULES = {
    "num_nodes": COUNT, "cores_per_node": COUNT, "source_instances": COUNT,
    "bandwidth_bps": POSITIVE, "network_latency": NON_NEGATIVE,
    "scheduler_interval": POSITIVE, "latency_target": POSITIVE, "phi": POSITIVE,
    "rc_manage_interval": POSITIVE, "sample_interval": POSITIVE,
    "trace_every": INDEX, "detection_delay": NON_NEGATIVE,
    "state_rebuild_bytes_per_s": POSITIVE, "static_restart_seconds": NON_NEGATIVE,
}


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
    #: RC manager cadence.
    rc_manage_interval: float = 1.0
    #: Static paradigm: optional per-operator weights for splitting the
    #: core budget (e.g. give the transactor half the cluster).  A fair
    #: "well-tuned" static deployment; operators not listed get weight 1.
    static_weights: typing.Optional[typing.Dict[str, float]] = None
    #: An :class:`ExecutorConfig`, or its dict form (a sweep spec's
    #: ``system_args.executor``).
    executor: ExecutorConfig = dataclasses.field(default_factory=ExecutorConfig)
    #: Sampling period for instantaneous-throughput time series.
    sample_interval: float = 0.5
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

    def __post_init__(self) -> None:
        check_fields(self, _RULES)
        if self.static_weights is not None and not isinstance(
            self.static_weights, typing.Mapping
        ):
            raise ValueError(
                "static_weights must map operator names to weights, "
                f"got {self.static_weights!r}"
            )
        if not isinstance(self.executor, ExecutorConfig):
            known = {field.name for field in dataclasses.fields(ExecutorConfig)}
            if unknown := unknown_keys("ExecutorConfig", self.executor, known):
                raise ValueError(f"unknown ExecutorConfig keys: {unknown}")
            self.executor = ExecutorConfig(**self.executor)
        if self.network_profile is not None:
            from repro.cluster.profile import NetworkProfile

            if not isinstance(self.network_profile, NetworkProfile):
                self.network_profile = NetworkProfile.load(self.network_profile)
        if self.fault_spec is not None:
            from repro.faults.spec import FaultSpec, FaultSpecError

            if isinstance(self.fault_spec, str):
                self.fault_spec = FaultSpec.load(self.fault_spec)
            elif not isinstance(self.fault_spec, FaultSpec):
                raise ValueError(
                    "fault_spec must be a FaultSpec, DSL/JSON text or a spec "
                    f"file path, got {self.fault_spec!r}"
                )
            for event in self.fault_spec.events:
                if event.node is not None and not 0 <= event.node < self.num_nodes:
                    raise FaultSpecError(
                        f"fault {event.kind.value}@{event.time:g} targets node "
                        f"{event.node}, but the cluster has nodes 0..{self.num_nodes - 1}"
                    )

    @property
    def total_cores(self) -> int:
        return self.num_nodes * self.cores_per_node
