"""Unified telemetry: event bus, control-plane spans, metric registry.

The observability layer of the reproduction (see ``docs/observability.md``):

- :class:`EventBus` / :class:`Span` / :class:`TelemetryEvent` — typed,
  zero-overhead-when-disabled event stream threaded through the sim
  kernel (``env.telemetry``), the executors, the scheduler and the fault
  coordinator.
- :class:`MetricRegistry` / :class:`RingSeries` — the per-executor
  ``executor_cores`` series, sampled every 0.5 s of virtual time.
- :class:`QuantileSketch` / :class:`LatencyProbe` — deterministic,
  mergeable, fixed-memory per-tuple latency sketches recorded in the
  executor delivery path (:mod:`repro.telemetry.sketch`).
- :class:`FlightRecorder` — bounded ring of recent telemetry, dumped as
  a JSONL post-mortem when a run dies (:mod:`repro.telemetry.flight`).
- :class:`Telemetry` — the per-run facade a
  :class:`~repro.runtime.system.StreamSystem` owns.

Exporters (:mod:`repro.telemetry.exporters`), the run report
(:mod:`repro.telemetry.report`) and the regression differ
(:mod:`repro.telemetry.diff`) are imported lazily by the CLI and the
benchmarks; they are deliberately not re-exported here to keep this
package import-light (the sim kernel imports it).
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.events import (
    NULL_BUS,
    NULL_SPAN,
    EventBus,
    NullEventBus,
    Span,
    TelemetryEvent,
)
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.registry import MetricRegistry, RingSeries
from repro.telemetry.sketch import LatencyProbe, QuantileSketch

__all__ = [
    "EventBus",
    "FlightRecorder",
    "LatencyProbe",
    "MetricRegistry",
    "NULL_BUS",
    "NULL_SPAN",
    "NullEventBus",
    "QuantileSketch",
    "RingSeries",
    "Span",
    "Telemetry",
    "TelemetryEvent",
]
