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

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "EVENT_TYPES": ".events",
        "CallTraced": ".events",
        "Event": ".events",
        "FleetMerge": ".events",
        "FleetPublish": ".events",
        "InlineDecisionEvent": ".events",
        "Recompilation": ".events",
        "ScopeBegin": ".events",
        "ScopeEnd": ".events",
        "StackSample": ".events",
        "TimerTick": ".events",
        "WarmStart": ".events",
        "WindowClose": ".events",
        "WindowOpen": ".events",
        "YieldpointTaken": ".events",
        "FORMATS": ".exporters",
        "LoadedTrace": ".exporters",
        "TraceFormatError": ".exporters",
        "chrome_trace_events": ".exporters",
        "export": ".exporters",
        "export_chrome": ".exporters",
        "export_jsonl": ".exporters",
        "load_trace": ".exporters",
        "stitch_chrome_traces": ".exporters",
        "Counter": ".metrics",
        "Gauge": ".metrics",
        "Histogram": ".metrics",
        "MetricsRegistry": ".metrics",
        "PromFormatError": ".promfmt",
        "render_registry": ".promfmt",
        "validate_text": ".promfmt",
        "FlightRecorder": ".ring",
        "ScopeTimer": ".scopes",
        "trace_scope": ".scopes",
        "summarize_trace": ".summary",
        "Tracer": ".tracer",
        # httpapi imports asyncio (~45 ms); only processes that serve HTTP pay.
        "HttpServerThread": ".httpapi",
        "ObservabilityHTTP": ".httpapi",
    },
)
