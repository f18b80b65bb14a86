"""The per-run telemetry facade: bus + registry + sampler.

One :class:`Telemetry` object lives on each
:class:`~repro.runtime.system.StreamSystem`.  Disabled (the default) it
costs nothing: the bus is the no-op :data:`~repro.telemetry.events.NULL_BUS`,
no sampler process is spawned, and no series is registered.  Enabled,
it attaches a live :class:`~repro.telemetry.events.EventBus` to the
simulation environment (``env.telemetry`` — how the bus is *threaded
through the sim kernel*: every component holding the environment reaches
the same bus), and runs a sampler process every :data:`SAMPLE_INTERVAL`
that records one ``executor_cores`` series per executor — the core
allocation timeline ``repro report`` renders.  The scheduler's own
inputs come from ``ExecutorMetrics``, not from these series.

The sampler only *reads* simulation state, so enabling telemetry never
perturbs results: same seed → bit-identical ``SystemResult`` either way.
"""

from __future__ import annotations

import typing

from repro.telemetry.events import EventBus, NULL_BUS, Span, TelemetryEvent
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.registry import MetricRegistry
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
        self._system: typing.Any = None
        self._started = False

    # -- wiring ------------------------------------------------------------

    def attach(self, system: typing.Any) -> None:
        """Install the bus on the environment; the sampler reads ``system``."""
        if not self.enabled:
            return
        self.env.telemetry = self.bus
        self._system = system

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
        """One tick: each executor's core allocation.  Read-only by
        construction."""
        now = self.env.now
        for executors in self._system.executors_by_operator.values():
            for executor in executors:
                self.registry.series("executor_cores", executor=executor.name).record(
                    now, float(getattr(executor, "num_cores", 1))
                )

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
