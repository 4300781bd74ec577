"""VM-wide telemetry: structured events, metrics, and trace export.

The observability substrate for the profiling pipeline.  A
:class:`Tracer` attached to a VM (``vm.attach_telemetry(tracer)``)
records typed events — timer ticks, yieldpoint transitions, CBS window
open/close, stack-walk samples, adaptive recompilations, inlining
decisions — stamped with the VM's virtual clock, and aggregates them
into a metrics registry (counters, gauges, fixed-bucket histograms).

Exporters write JSONL or Chrome ``trace_event`` JSON (loadable in
``chrome://tracing`` / Perfetto); ``repro-mini report FILE`` summarizes
either format as a table.  See docs/OBSERVABILITY.md.

Telemetry never charges virtual time: a traced run computes the exact
same result, virtual time, and profile as an untraced one.  With no
tracer attached the hooks cost a single ``is not None`` check.

The live plane on top of the offline traces: :mod:`~repro.telemetry.ring`
is the always-on flight recorder (post-mortem JSONL on faults),
:mod:`~repro.telemetry.promfmt` renders the registry in Prometheus text
format, and :mod:`~repro.telemetry.httpapi` serves ``/metrics``,
``/healthz``, and ``/status`` over HTTP for the fleet service
(``serve --http-port``) and long VM runs (``run --metrics-port``).
"""

from repro.telemetry.events import (
    EVENT_TYPES,
    CallTraced,
    Event,
    FleetMerge,
    FleetPublish,
    InlineDecisionEvent,
    Recompilation,
    ScopeBegin,
    ScopeEnd,
    StackSample,
    TimerTick,
    WarmStart,
    WindowClose,
    WindowOpen,
    YieldpointTaken,
)
from repro.telemetry.exporters import (
    FORMATS,
    LoadedTrace,
    TraceFormatError,
    chrome_trace_events,
    export,
    export_chrome,
    export_jsonl,
    load_trace,
    stitch_chrome_traces,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.promfmt import PromFormatError, render_registry, validate_text
from repro.telemetry.ring import FlightRecorder
from repro.telemetry.scopes import ScopeTimer, trace_scope
from repro.telemetry.summary import summarize_trace
from repro.telemetry.tracer import Tracer


def __getattr__(name: str):
    # httpapi imports asyncio (~45 ms); only processes that serve HTTP pay.
    if name in ("HttpServerThread", "ObservabilityHTTP"):
        from repro.telemetry import httpapi

        return getattr(httpapi, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EVENT_TYPES",
    "CallTraced",
    "Counter",
    "Event",
    "FORMATS",
    "FleetMerge",
    "FleetPublish",
    "Gauge",
    "Histogram",
    "InlineDecisionEvent",
    "LoadedTrace",
    "MetricsRegistry",
    "Recompilation",
    "ScopeBegin",
    "ScopeEnd",
    "ScopeTimer",
    "StackSample",
    "TimerTick",
    "TraceFormatError",
    "Tracer",
    "WarmStart",
    "WindowClose",
    "WindowOpen",
    "YieldpointTaken",
    "chrome_trace_events",
    "export",
    "export_chrome",
    "export_jsonl",
    "load_trace",
    "summarize_trace",
    "trace_scope",
]
