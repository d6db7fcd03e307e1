"""Unified observability: metrics registry, span tracing, profiling hooks.

Three facets, one activation model:

- **Metrics** — labelled :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments in a :class:`MetricsRegistry`
  (:mod:`repro.obs.metrics`).
- **Tracing** — a :class:`Tracer` of spans and instants, exportable as
  Chrome trace-event JSON (Perfetto / ``chrome://tracing``) and JSONL
  (:mod:`repro.obs.tracing`).
- **Profiling** — opt-in per-event-callback wall-time attribution in the
  simulator event loop, aggregated into a hot-spot table
  (:mod:`repro.obs.profiling`).

Everything is off by default and scoped with :func:`capture`
(:mod:`repro.obs.runtime`); disabled call sites reduce to no-ops.  The
experiment runner activates a capture per job when asked
(``repro sweep --profile --trace-out DIR``) and embeds the snapshots in the
run manifest; ``repro obs manifest.json`` renders them back.

Two cross-run companions build on the per-run layer (imported lazily —
``repro.obs.<name>`` — so the in-run hot path pays nothing for them):

- :mod:`repro.obs.report` — aggregate one finished run's manifest, rows,
  metrics, and verdicts into self-contained HTML + markdown reports.
- :mod:`repro.obs.status` — the live ``status.json`` heartbeat a running
  sweep maintains for ``repro obs tail --follow``, projected from the
  control-plane fold of :mod:`repro.obs.sweeptrace`.
"""

import importlib

from .metrics import (
    DEFAULT_NS_EDGES,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    fixed_width_edges,
)
from .profiling import HotSpot, Profiler, callback_name, hotspot_table
from .runtime import (
    ObsCapture,
    capture,
    enabled,
    get_registry,
    get_telemetry,
    get_tracer,
    profiler_for_new_sim,
)
from .telemetry import (
    NULL_TELEMETRY,
    FlightRecorder,
    NullTelemetry,
    RingSampler,
    TELEMETRY_SCHEMA,
    TelemetryHub,
)
from .tracing import NULL_TRACER, NullTracer, SIM_TRACK, Span, Tracer

#: Cross-run submodules resolved on first attribute access.
_LAZY_SUBMODULES = ("report", "status", "sweeptrace")


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_NS_EDGES",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HotSpot",
    "MetricsRegistry",
    "NullRegistry",
    "NullTelemetry",
    "NullTracer",
    "ObsCapture",
    "Profiler",
    "RingSampler",
    "SIM_TRACK",
    "Span",
    "TELEMETRY_SCHEMA",
    "TelemetryHub",
    "Tracer",
    "callback_name",
    "capture",
    "enabled",
    "fixed_width_edges",
    "get_registry",
    "get_telemetry",
    "get_tracer",
    "hotspot_table",
    "profiler_for_new_sim",
]
