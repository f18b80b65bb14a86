"""The per-run telemetry facade: bus + registry + sampler.

One :class:`Telemetry` object lives on each
:class:`~repro.runtime.system.StreamSystem`.  Disabled (the default) it
costs nothing: the bus is the no-op :data:`~repro.telemetry.events.NULL_BUS`,
no sampler process is spawned, and no instrument is registered.  Enabled,
it attaches a live :class:`~repro.telemetry.events.EventBus` to the
simulation environment (``env.telemetry`` — how the bus is *threaded
through the sim kernel*: every component holding the environment reaches
the same bus), registers the standard gauges over the system's executors
and cluster, and runs a sampler process every :data:`SAMPLE_INTERVAL`.

The sampler only *reads* simulation state, so enabling telemetry never
perturbs results: same seed → bit-identical ``SystemResult`` either way.
"""

from __future__ import annotations

import typing

from repro.telemetry.events import EventBus, NULL_BUS, Span, TelemetryEvent
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.registry import MetricRegistry, RingSeries
from repro.telemetry.sketch import LatencyProbe

#: Metric-registry sampling period (virtual seconds).
SAMPLE_INTERVAL = 0.5


class Telemetry:
    """Bus + registry + sampler + probes for one system run."""

    def __init__(self, env: typing.Any, enabled: bool = False) -> None:
        self.env = env
        self.enabled = enabled
        self.bus: EventBus = EventBus(env) if enabled else NULL_BUS
        self.registry = MetricRegistry()
        self.flight: typing.Optional[FlightRecorder] = None
        if enabled:
            self.flight = FlightRecorder()
            self.bus.subscribe(self.flight.on_record)
        self._probes: typing.Dict[str, LatencyProbe] = {}
        self._probe_warmup = 0.0
        self._system: typing.Optional[typing.Any] = None
        self._started = False
        # Sampler fast path: (name, labels) -> RingSeries lookups are a
        # measurable share of a tick, so the per-executor and per-shard
        # series are resolved once and cached by executor name.
        self._executor_series: typing.Dict[str, typing.Any] = {}
        self._shard_series: typing.Dict[str, typing.List[RingSeries]] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, system: typing.Any) -> None:
        """Install the bus on the environment and register system gauges."""
        if not self.enabled:
            return
        self.env.telemetry = self.bus
        self._system = system
        registry = self.registry
        cluster = system.cluster
        stats = system.recovery_stats
        network = cluster.network
        registry.register_gauge(
            "cluster_free_cores", lambda: cluster.cores.total_free
        )
        registry.register_gauge(
            "tuples_lost", lambda: stats.tuples_lost.total
        )
        registry.register_gauge(
            "tuples_rerouted", lambda: stats.tuples_rerouted.total
        )
        registry.register_gauge(
            "migrated_state_bytes",
            lambda: sum(
                counter.total for purpose, counter in network.bytes_by_purpose.items()
                if purpose.name == "STATE_MIGRATION"
            ),
        )
        registry.register_gauge(
            "admitted_tuples",
            lambda: sum(source.emitted_tuples for source in system.sources),
        )
        # Ingest watermark: the newest nominal creation time emitted by
        # any source.  `env.now - watermark` is the end-to-end ingest lag
        # the backpressure literature keys on.
        registry.register_gauge(
            "ingest_watermark",
            lambda: max(
                (source.last_created for source in system.sources), default=0.0
            ),
        )
        for source in system.sources:
            registry.register_gauge(
                "source_schedule_lag",
                lambda s=source: max(0.0, self.env.now - s.last_created),
                source=source.name,
            )

    # -- per-tuple latency probes ------------------------------------------

    def probe(self, name: str) -> typing.Optional[LatencyProbe]:
        """The per-owner latency probe, or ``None`` when disabled.

        Owners (executors, RC operator managers) hold the returned probe
        in a ``latency_probe`` attribute and guard the hot delivery path
        with a single ``is not None`` test — the same discipline as the
        :data:`~repro.telemetry.events.NULL_BUS` fast path, so the PR 3
        kernel speedup is untouched when telemetry is off.
        """
        if not self.enabled:
            return None
        existing = self._probes.get(name)
        if existing is None:
            existing = LatencyProbe(name, warmup=self._probe_warmup)
            self._probes[name] = existing
        return existing

    def set_warmup(self, warmup: float) -> None:
        """Drop probe observations before ``warmup`` virtual seconds."""
        self._probe_warmup = warmup
        for probe in self._probes.values():
            probe.warmup = warmup

    def probes(self) -> typing.Dict[str, LatencyProbe]:
        """name -> probe, in name order."""
        return {name: self._probes[name] for name in sorted(self._probes)}

    def sketches_payload(self) -> typing.Dict[str, typing.Any]:
        """JSON-safe payload of every probe (``sketches.json`` body)."""
        return {name: probe.to_dict() for name, probe in self.probes().items()}

    # -- post-mortem --------------------------------------------------------

    def flight_dump(
        self,
        directory: typing.Any,
        reason: str,
        meta: typing.Optional[typing.Dict[str, typing.Any]] = None,
    ) -> typing.Optional[typing.Any]:
        """Dump the flight ring; no-op (returns None) when disabled."""
        if self.flight is None:
            return None
        return self.flight.dump(directory, reason, meta=meta)

    def attach_scheduler(self, scheduler: typing.Any) -> None:
        """Register forecast gauges for a forecasting scheduler strategy.

        Called after the scheduler exists (it is built after
        :meth:`attach` runs).  Strategies without a forecast bank —
        reactive, naive-EC — register nothing, so those runs stay
        bit-identical to builds without this hook.
        """
        if not self.enabled:
            return
        bank = getattr(scheduler.strategy, "bank", None)
        if bank is None:
            return
        registry = self.registry
        for executor in scheduler.executors:
            name = executor.name
            registry.register_gauge(
                "forecast_demand",
                lambda n=name: bank.predict(n),
                executor=name,
            )
            registry.register_gauge(
                "forecast_abs_error",
                lambda n=name: bank.abs_error(n),
                executor=name,
            )

    def start(self) -> None:
        """Spawn the sampler process (idempotent; no-op when disabled)."""
        if not self.enabled or self._started:
            return
        self._started = True
        self.env.process(self._sampler_loop())

    # -- sampling ----------------------------------------------------------

    def _sampler_loop(self) -> typing.Generator:
        while True:
            yield self.env.timeout(SAMPLE_INTERVAL)
            self.sample()

    def sample(self) -> None:
        """One tick: per-executor and per-shard series plus every
        registered gauge.  Read-only by construction."""
        now = self.env.now
        system = self._system
        if system is not None:
            for op_name in system.executors_by_operator:
                for executor in system.executors_by_operator[op_name]:
                    self._sample_executor(now, executor)
            # RC tracks shard loads at the operator manager, not the
            # (single-core) executors.
            for op_name in getattr(system, "rc_managers", {}):
                manager = system.rc_managers[op_name]
                shard_series = self._shard_series_for(
                    op_name, len(manager._shard_load)
                )
                for shard_id, load in enumerate(manager._shard_load):
                    shard_series[shard_id].record(now, load)
        self.registry.sample(now)
        flight = self.flight
        if flight is not None and system is not None:
            flight.note(
                now,
                "metric_sample",
                free_cores=system.cluster.cores.total_free,
                admitted=sum(s.emitted_tuples for s in system.sources),
            )

    def _shard_series_for(
        self, owner: str, count: int
    ) -> typing.List[RingSeries]:
        """The cached per-shard ``shard_load`` series for ``owner``, grown
        on demand (elastic executors gain shards mid-run)."""
        shard_series = self._shard_series.get(owner)
        if shard_series is None:
            shard_series = self._shard_series[owner] = []
        registry = self.registry
        while len(shard_series) < count:
            shard_series.append(
                registry.series(
                    "shard_load", executor=owner, shard=len(shard_series)
                )
            )
        return shard_series

    def _sample_executor(self, now: float, executor: typing.Any) -> None:
        name = executor.name
        cached = self._executor_series.get(name)
        if cached is None:
            registry = self.registry
            cached = (
                registry.series("executor_arrival_rate", executor=name),
                registry.series("executor_service_rate", executor=name),
                registry.series("executor_queue_depth", executor=name),
                registry.series("executor_backpressure", executor=name),
                registry.series("executor_cores", executor=name),
                registry.series("executor_processed_tuples", executor=name),
                (
                    registry.series("executor_state_bytes", executor=name)
                    if getattr(executor, "state_bytes", None) is not None
                    else None
                ),
            )
            self._executor_series[name] = cached
        metrics = executor.metrics
        queue = executor.input_queue
        cached[0].record(now, metrics.arrival_rate(now))
        cached[1].record(now, metrics.service_rate())
        cached[2].record(now, float(len(queue)))
        cached[3].record(now, float(queue.pending_puts))
        cached[4].record(now, float(getattr(executor, "num_cores", 1)))
        cached[5].record(now, float(metrics.processed_tuples.total))
        if cached[6] is not None:
            cached[6].record(now, float(executor.state_bytes()))
        shard_load = getattr(executor, "_shard_load", None)
        if shard_load is not None:
            shard_series = self._shard_series_for(name, len(shard_load))
            for shard_id, load in enumerate(shard_load):
                shard_series[shard_id].record(now, load)

    # -- convenience views -------------------------------------------------

    @property
    def events(self) -> typing.List[TelemetryEvent]:
        return self.bus.events

    @property
    def spans(self) -> typing.List[Span]:
        return self.bus.spans

    def spans_named(self, name: str) -> typing.List[Span]:
        return self.bus.spans_named(name)

    def events_of(self, kind: str) -> typing.List[TelemetryEvent]:
        return self.bus.events_of(kind)

    def series(self, name: str, **labels: typing.Any) -> RingSeries:
        return self.registry.series(name, **labels)
