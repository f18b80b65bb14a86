"""StreamSystem: build, run and measure one experiment."""

from __future__ import annotations

import dataclasses
import gc
import os
import statistics
import typing
import weakref

from repro.cluster import Cluster, TransferPurpose
from repro.executors import (
    ElasticExecutor,
    ElasticGroup,
    RCGroup,
    RCOperatorManager,
    ReassignmentStats,
    SourceInstance,
    StaticExecutor,
)
from repro.faults import FaultCoordinator, FaultInjector
from repro.faults.spec import FaultKind
from repro.fields import POSITIVE, check_number, check_window
from repro.logic.base import replicate
from repro.metrics import RecoveryStats, TimeSeries
from repro.runtime.config import Paradigm, SystemConfig
from repro.scheduler import DynamicScheduler, NaiveECStrategy, ReactiveStrategy
from repro.scheduler.model import MMKModel
from repro.sim import Environment
from repro.telemetry import QuantileSketch, Telemetry
from repro.telemetry.sketch import FOLD_THRESHOLD
from repro.topology import Topology

SOURCE_OWNER = "__sources__"

#: Where the flight-recorder post-mortem lands when a run dies, unless
#: the ``REPRO_FLIGHT_DIR`` environment variable names another directory.
FLIGHT_RECORDER_DIR = "flight-recorder"

#: Systems whose run has ended.  Each is one large reference cycle that
#: only a full collection frees, and the recycled-event data path
#: allocates too little for one to start by itself.
_FINISHED: weakref.WeakSet[StreamSystem] = weakref.WeakSet()

class PlacementError(ValueError):
    """The cluster has too few free cores for the initial executors."""


@dataclasses.dataclass
class SystemResult:
    """Measured outcome of one run (all rates in tuples/second)."""

    paradigm: Paradigm
    duration: float
    warmup: float
    throughput_tps: float
    #: Arrival-time latency: completion minus the tuple's *nominal* arrival
    #: time.  Counts the backlog a lagging system accumulates — the metric
    #: a realtime application cares about, and the one that explodes when
    #: a paradigm cannot keep up (paper Figure 6b / 16b).
    latency: typing.Dict[str, float]
    #: Residence latency: completion minus actual admission into the
    #: system.  Bounded by queue capacities even under saturation.
    residence: typing.Dict[str, float]
    throughput_series: TimeSeries
    #: Tuples delivered to the sink per sample interval: one point per
    #: non-empty interval, stamped at its first completion.
    sink_completions: TimeSeries
    migration_bytes: int
    remote_task_bytes: int
    stream_bytes: int
    reassignment_stats: ReassignmentStats
    scheduler_rounds: int
    scheduler_mean_wall_seconds: float
    generated_tuples: int
    processed_tuples: int
    #: Sampled latency-breakdown traces (``SystemConfig.trace_every``).
    traces: typing.List[typing.Dict[str, float]] = dataclasses.field(
        default_factory=list
    )
    #: Recovery counters (``RecoveryStats.snapshot()``); all-zero when no
    #: fault spec was configured.
    recovery: typing.Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Seconds from the first fault until throughput is back to >= 90% of
    #: its pre-fault mean (0 when no faults were injected).
    time_to_steady_state: float = 0.0

    #: Trace stamps a breakdown needs; traces missing any are incomplete
    #: (sampled mid-flight at run end, or stamps lost to a crash).
    TRACE_STAGES = frozenset({"created", "admitted", "received", "task_start", "done"})

    def complete_traces(self) -> typing.List[typing.Dict[str, float]]:
        return [t for t in self.traces if self.TRACE_STAGES <= set(t)]

    @property
    def incomplete_traces(self) -> int:
        """Sampled traces excluded from :meth:`trace_breakdown` because
        one or more stage stamps are missing — reported, not silently
        dropped, so a run that loses most of its traces is visible."""
        return len(self.traces) - len(self.complete_traces())

    def trace_breakdown(self) -> typing.Dict[str, float]:
        """Mean seconds per pipeline stage over the sampled traces.

        Stages: ``source_wait`` (nominal arrival -> admission),
        ``delivery`` (admission -> last receiver), ``queue`` (receiver ->
        task), ``service`` (task start -> completion).  RC executors have
        no receiver thread: the first task to start a traced batch stamps
        ``received``, so RC queue wait counts as ``delivery``.  Only complete
        traces contribute; :attr:`incomplete_traces` counts the excluded.
        """
        stages = {"source_wait": 0.0, "delivery": 0.0, "queue": 0.0, "service": 0.0}
        complete = self.complete_traces()
        if not complete:
            return stages
        n = len(complete)
        for t in complete:
            stages["source_wait"] += t["admitted"] - t["created"]
            stages["delivery"] += max(0.0, t["received"] - t["admitted"])
            stages["queue"] += max(0.0, t["task_start"] - t["received"])
            stages["service"] += max(0.0, t["done"] - t["task_start"])
        return {stage: total / n for stage, total in stages.items()}

    @property
    def migration_rate(self) -> float:
        """State-migration bytes/second over the whole run (Table 2)."""
        return self.migration_bytes / self.duration

    @property
    def remote_transfer_rate(self) -> float:
        """Remote-task data bytes/second over the whole run (Table 2)."""
        return self.remote_task_bytes / self.duration

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        """JSON-safe summary — the dict behind ``--json`` and the
        ``summary.json`` exporter (one schema, every consumer)."""
        return {
            "paradigm": self.paradigm.value,
            "duration": self.duration,
            "warmup": self.warmup,
            "throughput_tps": self.throughput_tps,
            "latency": dict(self.latency),
            "residence": dict(self.residence),
            "migration_bytes": self.migration_bytes,
            "migration_rate": self.migration_rate,
            "remote_task_bytes": self.remote_task_bytes,
            "remote_transfer_rate": self.remote_transfer_rate,
            "stream_bytes": self.stream_bytes,
            "reassignment": {
                "intra_node": self.reassignment_stats.mean_breakdown(False),
                "inter_node": self.reassignment_stats.mean_breakdown(True),
            },
            "scheduler_rounds": self.scheduler_rounds,
            "scheduler_mean_wall_seconds": self.scheduler_mean_wall_seconds,
            "generated_tuples": self.generated_tuples,
            "processed_tuples": self.processed_tuples,
            "traces": {
                "sampled": len(self.traces),
                "incomplete": self.incomplete_traces,
                "breakdown": self.trace_breakdown(),
            },
            "recovery": dict(self.recovery),
            "time_to_steady_state": self.time_to_steady_state,
        }

    def summary(self) -> str:
        lines = [
            f"paradigm            : {self.paradigm.value}",
            f"duration / warmup   : {self.duration:.1f}s / {self.warmup:.1f}s",
            f"throughput          : {self.throughput_tps:,.0f} tuples/s",
            f"latency mean        : {self.latency['mean'] * 1e3:.2f} ms",
            f"latency p99         : {self.latency['p99'] * 1e3:.2f} ms",
            f"state migration     : {self.migration_rate / 1e6:.2f} MB/s",
            f"remote task traffic : {self.remote_transfer_rate / 1e6:.2f} MB/s",
        ]
        if self.traces:
            lines.append(
                f"traces sampled      : {len(self.traces)} "
                f"({self.incomplete_traces} incomplete, excluded)"
            )
        if self.scheduler_rounds:
            lines.append(
                f"scheduling time     : {self.scheduler_mean_wall_seconds * 1e3:.2f} ms/round"
            )
        if self.recovery.get("faults_injected"):
            lines.extend(
                [
                    f"faults injected     : {self.recovery['faults_injected']:.0f}",
                    f"tuples lost         : {self.recovery['tuples_lost']:,.0f}",
                    f"tuples rerouted     : {self.recovery['tuples_rerouted']:,.0f}",
                    f"state rebuilt       : {self.recovery['state_bytes_rebuilt'] / 1e6:.2f} MB",
                    f"state re-migrated   : {self.recovery['bytes_remigrated'] / 1e6:.2f} MB",
                    f"downtime            : {self.recovery['downtime_seconds']:.2f} s over {self.recovery['recoveries']:.0f} recoveries",
                    f"time to steady state: {self.time_to_steady_state:.2f} s",
                ]
            )
        return "\n".join(lines)


class StreamSystem:
    """One topology running under one paradigm on one simulated cluster."""

    def __init__(
        self,
        topology: Topology,
        workload: typing.Any,
        config: typing.Optional[SystemConfig] = None,
    ) -> None:
        self.topology = topology
        self.workload = workload
        self.config = config or SystemConfig()
        self.env = Environment()
        self.cluster = Cluster(
            self.env,
            num_nodes=self.config.num_nodes,
            cores_per_node=self.config.cores_per_node,
            bandwidth_bps=self.config.bandwidth_bps,
            network_latency=self.config.network_latency,
            network_profile=self.config.network_profile,
        )
        if self.config.fault_spec is not None and any(
            event.kind is FaultKind.PARTITION
            for event in self.config.fault_spec.events
        ):
            # Partitions must stall transfers already in flight, not just
            # new reservations (docs/faults.md) — arm the delivery guard
            # before any channel is built so every transfer is re-checked.
            self.cluster.network.enable_delivery_guard()
        self.reassignment_stats = ReassignmentStats()
        self._sink_latency = QuantileSketch()
        self._sink_residence = QuantileSketch()
        #: Post-warmup sink ages and residences not yet folded into the
        #: two sketches above (see :meth:`_fold_sink`).
        self._sink_ages: typing.List[float] = []
        self._sink_residences: typing.List[float] = []
        #: Tuples delivered to the sink per non-empty sample interval
        #: ``int(now / sample_interval)``, stamped at the interval's first
        #: completion: O(duration) points, not one per batch.
        self.sink_completions = TimeSeries("sink_completions")
        self._completion_bin = -1
        #: The series' values and the bin width, bound once for
        #: :meth:`_record_sink` (a frame and a lookup per batch).
        self._completion_values = self.sink_completions._values
        self._sample_interval = self.config.sample_interval
        #: Completed latency-breakdown traces (config.trace_every > 0).
        self.traces: typing.List[typing.Dict[str, float]] = []
        self.throughput_series = TimeSeries("instantaneous_throughput")
        self._warmup = 0.0
        self.sources: typing.List[SourceInstance] = []
        self.executors_by_operator: typing.Dict[str, typing.List] = {}
        self.rc_managers: typing.Dict[str, RCOperatorManager] = {}
        self.scheduler: typing.Optional[DynamicScheduler] = None
        self._reserved_by_node: typing.Dict[int, int] = {}
        self.recovery_stats = RecoveryStats()
        self.fault_coordinator: typing.Optional[FaultCoordinator] = None
        self.fault_injector: typing.Optional[FaultInjector] = None
        #: The observability layer (docs/observability.md).  Disabled by
        #: default: the no-op bus is installed and no sampler runs, so
        #: results are bit-identical with telemetry on or off.
        self.telemetry = Telemetry(self.env, enabled=self.config.telemetry)
        self.telemetry.attach(self)
        self._build()
        if self.config.fault_spec is not None:
            self.fault_coordinator = FaultCoordinator(self, self.recovery_stats)
            self.fault_injector = FaultInjector(
                self.env, self.config.fault_spec, self.fault_coordinator,
                self.recovery_stats,
            )

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        config = self.config
        source_names = self.topology.sources()
        if len(source_names) != 1:
            raise ValueError("StreamSystem currently supports one source operator")
        self._source_name = source_names[0]
        self._measure_operator = self.topology.downstream(self._source_name)[0]

        # Source instances on round-robin nodes, one reserved core each.
        free = self.cluster.cores.free_by_node()
        for i in range(config.source_instances):
            node = i % config.num_nodes
            free[node] -= 1
            if free[node] < 0:
                raise PlacementError(
                    f"source_instances={config.source_instances} does not fit: "
                    f"round-robin puts more sources on node {node} than its "
                    f"{self.cluster.cores.capacity(node)} cores"
                )
        for i in range(config.source_instances):
            node = i % config.num_nodes
            instance = SourceInstance(
                self.env, self.cluster.network, self._source_name, i, node,
                trace_every=config.trace_every,
            )
            self.cluster.cores.allocate(SOURCE_OWNER, node, 1)
            self._reserved_by_node[node] = self._reserved_by_node.get(node, 0) + 1
            self.sources.append(instance)

        non_source_ops = [
            spec for spec in self.topology if not spec.is_source
        ]
        if config.static_weights:
            names = {spec.name for spec in non_source_ops}
            for name, weight in config.static_weights.items():
                if name not in names:
                    raise ValueError(
                        f"static_weights key {name!r} names no operator of the "
                        f"topology (operators: {', '.join(sorted(names))})"
                    )
                check_number(f"static_weights[{name!r}]", weight, POSITIVE)
        counts = {
            spec.name: (
                self._static_executor_count(
                    len(non_source_ops), spec.name, non_source_ops
                )
                if config.paradigm is Paradigm.STATIC
                else spec.num_executors
            )
            for spec in non_source_ops
        }
        demand = sum(counts.values())
        free = self.cluster.cores.total_free
        if demand > free:
            raise PlacementError(
                f"cannot place {demand} executors: only {free} free cores "
                f"({config.num_nodes} nodes x {config.cores_per_node} cores, "
                f"{config.source_instances} held by source instances)"
            )

        groups: typing.Dict[str, typing.Any] = {}
        for spec in non_source_ops:
            count = counts[spec.name]
            if config.paradigm is Paradigm.RC:
                manager = RCOperatorManager(
                    self.env, self.cluster, spec,
                    reassignment_stats=self.reassignment_stats,
                    manage_interval=config.rc_manage_interval,
                    manager_node=0,
                    logic_factory=(lambda s=spec: replicate(s.logic)),
                )
                nodes = self._place_on_free_cores(count)
                manager.bootstrap(count, nodes)
                manager.target_executors_fn = self._make_rc_policy(manager)
                manager.latency_probe = self.telemetry.probe(spec.name)
                self.rc_managers[spec.name] = manager
                self.executors_by_operator[spec.name] = manager.executors
                groups[spec.name] = RCGroup(spec.name, manager)
            else:
                executor_cls = (
                    StaticExecutor if config.paradigm is Paradigm.STATIC
                    else ElasticExecutor
                )
                executors = [
                    self._start_executor(executor_cls, spec, i, node)
                    for i, node in enumerate(self._place_on_free_cores(count))
                ]
                self.executors_by_operator[spec.name] = executors
                groups[spec.name] = ElasticGroup(spec.name, executors)

        # Wire downstream edges and sink recording.
        for spec in non_source_ops:
            downstream_groups = [
                groups[name] for name in self.topology.downstream(spec.name)
            ]
            recorder = None if downstream_groups else self._record_sink
            if config.paradigm is Paradigm.RC:
                self.rc_managers[spec.name].connect(downstream_groups, recorder)
            else:
                for executor in self.executors_by_operator[spec.name]:
                    executor.connect(downstream_groups, recorder)
        for source in self.sources:
            source.connect(
                [groups[name] for name in self.topology.downstream(self._source_name)]
            )

        # RC managers synchronize with their upstream executor instances.
        for name, manager in self.rc_managers.items():
            manager.connect_upstreams(self._upstream_instances(name))
            manager.start()

        # Global scheduler for the executor-centric paradigms.
        if config.paradigm in (Paradigm.ELASTICUTOR, Paradigm.NAIVE_EC):
            all_executors = [
                executor
                for executors in self.executors_by_operator.values()
                for executor in executors
            ]
            self.scheduler = DynamicScheduler(
                self.env,
                self.cluster,
                all_executors,
                interval=config.scheduler_interval,
                latency_target=config.latency_target,
                phi=config.phi,
                reserved_by_node=self._reserved_by_node,
                strategy=(
                    NaiveECStrategy()
                    if config.paradigm is Paradigm.NAIVE_EC
                    else ReactiveStrategy()
                ),
            )
            self.scheduler.start()

    def _upstream_instances(self, name: str) -> typing.List[typing.Any]:
        """Every source instance or executor feeding operator ``name``."""
        instances: typing.List[typing.Any] = []
        for upstream_name in self.topology.upstream(name):
            if upstream_name == self._source_name:
                instances.extend(self.sources)
            else:
                instances.extend(self.executors_by_operator[upstream_name])
        return instances

    def _start_executor(self, executor_cls, spec, index: int, node: int):
        """Build executor ``index`` of ``spec`` on ``node``, give it one
        core there and start it."""
        executor = executor_cls(
            self.env, self.cluster, spec, index=index, local_node=node,
            logic=replicate(spec.logic),
            config=self.config.executor,
            reassignment_stats=self.reassignment_stats,
        )
        executor.latency_probe = self.telemetry.probe(executor.name)
        self.cluster.cores.allocate(executor.name, node, 1)
        executor.start(initial_cores=1)
        return executor

    def _place_on_free_cores(self, count: int) -> typing.List[int]:
        """Round-robin node placement that respects remaining free cores.

        Only plans the placement — the caller (executor bootstrap) performs
        the actual :class:`CoreManager` allocations in the same order.
        """
        free = self.cluster.cores.free_by_node()
        available = sum(free.values())
        if count > available:
            raise PlacementError(
                f"cannot place {count} executors: only {available} free cores"
            )
        node_ids = sorted(free)
        nodes: typing.List[int] = []
        cursor = 0
        while len(nodes) < count:
            node = node_ids[cursor % len(node_ids)]
            cursor += 1
            if free[node] > 0:
                free[node] -= 1
                nodes.append(node)
        return nodes

    def _static_executor_count(
        self, num_operators: int, name: str, specs
    ) -> int:
        budget = self.config.total_cores - self.config.source_instances
        weights = self.config.static_weights
        if weights:
            total_weight = sum(weights.get(s.name, 1.0) for s in specs)
            share = weights.get(name, 1.0) / total_weight
            return max(1, int(budget * share))
        return max(1, budget // num_operators)

    def _make_rc_policy(self, manager: RCOperatorManager):
        """Same M/M/k model as Elasticutor, applied per RC operator.

        Scale-in is damped (3 consecutive below-target rounds) so that
        measurement noise does not trigger a full global repartitioning
        every interval — mirroring the elastic scheduler's damping.
        """
        latency_target = self.config.latency_target
        state = {"below_rounds": 0, "round": 0, "last_congested": -(10**9)}

        def policy(mgr: RCOperatorManager) -> int:
            now = self.env.now
            state["round"] += 1
            lam = mgr.arrival_rate(now) * 1.2  # θ imbalance headroom
            mu = mgr.service_rate()
            congested = any(
                ex.input_queue.pending_puts > 0 for ex in mgr.executors
            )
            if congested:
                state["last_congested"] = state["round"]
                lam = max(lam, len(mgr.executors) * mu * 1.5)
            k = MMKModel.min_stable_cores(lam, mu)
            budget = len(mgr.executors) + self.cluster.cores.total_free
            while (
                k < budget
                and MMKModel.mean_sojourn(lam, mu, k) > latency_target
            ):
                k += 1
            target = max(1, min(k, budget))
            current = len(mgr.executors)
            if target < current:
                # Shrinking an RC operator costs a full global repartition;
                # hold steady after recent congestion and demand several
                # consecutive below-target rounds (see DynamicScheduler).
                recently_congested = (
                    state["round"] - state["last_congested"] <= 10
                )
                state["below_rounds"] += 1
                if recently_congested or state["below_rounds"] < 5:
                    return current
            else:
                state["below_rounds"] = 0
            return target

        return policy

    # -- measurement ---------------------------------------------------------

    @property
    def sink_latency(self) -> QuantileSketch:
        """Post-warmup sink ages (creation to sink), one per batch."""
        self._fold_sink()
        return self._sink_latency

    @property
    def sink_residence(self) -> QuantileSketch:
        """Post-warmup sink residences (admission to sink), one per batch."""
        self._fold_sink()
        return self._sink_residence

    def _record_sink(self, batch, now: float) -> None:
        index = int(now / self._sample_interval)
        if index == self._completion_bin:
            self._completion_values[-1] += batch.count
        else:
            self._completion_bin = index
            self.sink_completions.record(now, batch.count)
        if batch.trace is not None:
            self.traces.append(dict(batch.trace))
        if now >= self._warmup:
            ages = self._sink_ages
            age = now - batch.created_at
            ages.append(age if age > 0.0 else 0.0)
            admitted = batch.admitted_at
            if admitted is None:
                admitted = batch.created_at
            residence = now - admitted
            self._sink_residences.append(residence if residence > 0.0 else 0.0)
            if len(ages) >= FOLD_THRESHOLD:
                self._fold_sink()

    def _fold_sink(self) -> None:
        """Fold the buffered sink observations into their sketches.

        In record order, so the sketches are exactly what per-batch
        ``add`` calls would have built.
        """
        if self._sink_ages:
            self._sink_latency.add_all(self._sink_ages)
            self._sink_residence.add_all(self._sink_residences)
            self._sink_ages.clear()
            self._sink_residences.clear()

    def _sampler(self) -> typing.Generator:
        """Instantaneous system throughput.

        Measured at the sources: under backpressure, admission equals the
        rate the system sustains end-to-end, and the counter survives
        executor churn (RC creates and deletes executors at runtime).
        """
        last_total = 0
        while True:
            yield self.env.timeout(self.config.sample_interval)
            total = sum(source.emitted_tuples for source in self.sources)
            rate = (total - last_total) / self.config.sample_interval
            last_total = total
            self.throughput_series.record(self.env.now, rate)

    # -- running ---------------------------------------------------------------

    def run(
        self, duration: float, warmup: typing.Optional[float] = None
    ) -> SystemResult:
        """Drive the workload for ``duration`` simulated seconds."""
        self._warmup = duration * 0.25 if warmup is None else warmup
        check_window(duration, self._warmup)
        if _FINISHED:
            # Free the finished systems nothing references any more, so
            # back-to-back runs hold one system at a time.
            gc.collect()
        try:
            if hasattr(self.workload, "start_dynamics"):
                self.workload.start_dynamics(self.env)
            for i, source in enumerate(self.sources):
                source.start(
                    self.workload.schedule(
                        self.env, i, len(self.sources), duration=duration
                    )
                )
            self.env.process(self._sampler())
            self.telemetry.set_warmup(self._warmup)
            self.telemetry.start()
            if self.fault_injector is not None:
                self.fault_injector.start()
            self.env.run(until=duration)
        except BaseException as exc:
            # Post-mortem: anything escaping the run — a fault-coordinator
            # abort, a process crash, a bug — dumps the flight ring before
            # propagating (no-op when telemetry is off).
            self.telemetry.flight_dump(
                os.environ.get("REPRO_FLIGHT_DIR", FLIGHT_RECORDER_DIR),
                reason=f"{type(exc).__name__}: {exc}",
                meta={
                    "paradigm": self.config.paradigm.value,
                    "virtual_time": self.env.now,
                    "duration": duration,
                },
            )
            raise
        finally:
            _FINISHED.add(self)
            # The workload may draw ahead on a worker thread (SSE ticks):
            # no thread outlives the run, however it ends.
            close = getattr(self.workload, "close", None)
            if close is not None:
                close()
        return self.result(duration)

    def result(self, duration: float) -> SystemResult:
        executors = self.executors_by_operator[self._measure_operator]
        processed = sum(ex.metrics.processed_tuples.total for ex in executors)
        window = max(duration - self._warmup, 1e-9)
        measured = sum(
            value
            for time, value in zip(
                self.throughput_series.times, self.throughput_series.values
            )
            if time > self._warmup
        ) * self.config.sample_interval
        network = self.cluster.network.bytes_by_purpose
        report = self.scheduler.report if self.scheduler else None
        return SystemResult(
            paradigm=self.config.paradigm,
            duration=duration,
            warmup=self._warmup,
            throughput_tps=measured / window,
            latency=self.sink_latency.summary(),
            residence=self.sink_residence.summary(),
            throughput_series=self.throughput_series,
            sink_completions=self.sink_completions,
            migration_bytes=network[TransferPurpose.STATE_MIGRATION].total,
            remote_task_bytes=network[TransferPurpose.REMOTE_TASK].total,
            stream_bytes=network[TransferPurpose.STREAM].total,
            reassignment_stats=self.reassignment_stats,
            scheduler_rounds=len(report.rounds) if report else 0,
            scheduler_mean_wall_seconds=(
                report.mean_wall_seconds if report else 0.0
            ),
            generated_tuples=getattr(self.workload, "generated_tuples", 0),
            processed_tuples=processed,
            traces=list(self.traces),
            recovery=self.recovery_stats.snapshot(),
            time_to_steady_state=self._time_to_steady_state(duration),
        )

    def _time_to_steady_state(self, duration: float) -> float:
        """Seconds from the first fault back to steady-state throughput.

        Thin fault-spec guard around :meth:`steady_state_after` — the
        disruption time is the first injected fault.
        """
        spec = self.config.fault_spec
        if spec is None or not self.recovery_stats.faults_injected.total:
            return 0.0
        t0 = spec.first_fault_time
        if t0 is None or t0 >= duration:
            return 0.0
        return self.steady_state_after(t0, duration)

    def steady_state_after(
        self,
        t0: float,
        duration: float,
        baseline_until: typing.Optional[float] = None,
        stable: bool = False,
        threshold: float = 0.9,
        window: int = 1,
    ) -> float:
        """Seconds from disruption ``t0`` back to >= 90% baseline throughput.

        ``t0`` is any disruption instant — a fault injection, a workload
        burst onset — and the baseline is the pre-``t0`` throughput.
        ``baseline_until`` ends the baseline window earlier than ``t0``:
        for a disruption with a gradual onset (a burst ramp), measure
        recovery from the plateau but baseline against the bins *before
        the ramp began* — a system that degrades during the ramp must
        not get credit for clearing its own depressed baseline.
        Steady state needs BOTH measurement streams healthy, each binned
        into sample intervals and compared to its own pre-disruption mean:

        - *sink completions* — a paradigm whose losses dead-letter without
          backpressure admits at full rate while processing nothing for
          the dead key range; only the completion stream shows that hole.
        - *source admission* — a paradigm whose recovery pauses every
          upstream (the RC global-sync gate) keeps completing queued work
          during the stall; only the admission stream shows that freeze.

        The pre-disruption baseline of each stream is its mean over the
        bins fully inside ``[warmup, t0)``; recovery is declared at the
        first post-``t0`` bin where both streams meet their 90%
        thresholds and do so again in the successor bin (if any) — one
        bin is not steady state.  Never recovered within the run means
        the full remainder, ``duration - t0``.

        ``stable=True`` strengthens the recovery condition to *every*
        remaining bin healthy (recovery ends the last unhealthy bin) —
        right for gradual disruptions where a couple of early
        still-healthy bins precede the real collapse, and 0.0 means the
        system never left steady state at all.  ``threshold`` is the
        healthy fraction of the baseline (default 0.9).  ``window``
        smooths the health check over that many consecutive bins — a
        backlogged system alternates stall and drain-burst bins whose
        single-bin means look fine, but whose windowed means expose the
        instability (and conversely, windowing forgives one noisy bin
        in an otherwise steady stream).
        """
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        if t0 >= duration:
            return 0.0
        baseline_end = t0 if baseline_until is None else min(baseline_until, t0)
        interval = self.config.sample_interval
        nbins = max(1, int(duration / interval + 0.5))
        completions = [0.0] * nbins
        for time, value in zip(
            self.sink_completions.times, self.sink_completions.values
        ):
            completions[min(nbins - 1, int(time / interval))] += value
        # The sampler records at k*interval the admission rate over the
        # preceding interval, i.e. over bin k-1.
        admission: typing.List[typing.Optional[float]] = [None] * nbins
        for time, value in zip(
            self.throughput_series.times, self.throughput_series.values
        ):
            index = int(time / interval + 0.5) - 1
            if 0 <= index < nbins:
                admission[index] = value * interval

        def threshold_for(series: typing.Sequence[typing.Optional[float]]):
            pre = [
                series[i] for i in range(nbins)
                if series[i] is not None
                and i * interval >= self._warmup
                and (i + 1) * interval <= baseline_end
            ]
            if not pre:
                pre = [
                    series[i] for i in range(nbins)
                    if series[i] is not None
                    and (i + 1) * interval <= baseline_end
                ]
            if not pre:
                return None
            # Median, not mean: a backlog drained right after warmup
            # shows up as a couple of burst bins whose mean would set an
            # unreachable baseline for the true steady rate.
            return threshold * statistics.median(pre)

        comp_threshold = threshold_for(completions)
        adm_threshold = threshold_for(admission)
        if comp_threshold is None:
            return duration - t0

        def healthy(i: int) -> bool:
            span = range(i, min(i + window, nbins))
            comp_mean = sum(completions[k] for k in span) / len(span)
            if comp_mean < comp_threshold:
                return False
            if adm_threshold is not None:
                adm = [
                    admission[k] for k in span if admission[k] is not None
                ]
                if adm:
                    return sum(adm) / len(adm) >= adm_threshold
            return True

        # The bin straddling the disruption is ambiguous; post starts at
        # the first bin that begins at or after t0.
        post = [i for i in range(nbins) if i * interval >= t0]
        if stable:
            unhealthy = [i for i in post if not healthy(i)]
            if not unhealthy:
                return 0.0
            if unhealthy[-1] == post[-1]:
                return duration - t0
            return max(0.0, (unhealthy[-1] + 1) * interval - t0)
        for j, i in enumerate(post):
            if healthy(i) and (j + 1 >= len(post) or healthy(post[j + 1])):
                return max(0.0, (i + 1) * interval - t0)
        return duration - t0
