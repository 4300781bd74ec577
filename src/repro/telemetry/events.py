"""Typed telemetry events.

Every interesting transition in the profiling pipeline is modeled as a
small ``__slots__`` event object stamped with the VM's *virtual* time
(the same clock the cost model advances), so traces line up exactly
with the simulation the paper reasons about — when a window opened,
which yieldpoint fired, where a sample landed.

Each event class declares:

* ``name`` — the event-taxonomy name (stable; exporters and the
  ``repro-mini report`` summarizer key off it),
* ``phase`` — the Chrome ``trace_event`` phase this event maps to
  (``"i"`` instant, ``"B"``/``"E"`` duration begin/end),
* ``args()`` — the event's payload as a plain dict of JSON-able values.

Events are cheap to construct but not free; emitting is always guarded
by a ``tracer is not None`` check at the instrumentation site so the
disabled path costs a single attribute (or local-variable) check.
"""

from __future__ import annotations

from repro.vm.yieldpoint import KIND_NAMES

#: Human-readable names for yieldpoint control-word states.
FLAG_NAMES = {0: "YP_NONE", 1: "YP_ALL", -1: "YP_CBS"}


class Event:
    """Base class: a named, virtual-time-stamped occurrence."""

    __slots__ = ("ts",)

    name = "event"
    phase = "i"  # Chrome trace_event phase
    #: Cross-process flow role: ``"start"``/``"finish"`` events carrying
    #: a ``span_id`` additionally emit a Chrome flow record, which is
    #: how one publish is followed from a VM's trace into the fleet
    #: service's (see docs/OBSERVABILITY.md).
    flow: str | None = None
    #: Default span coordinates; span-carrying subclasses override with
    #: real slots so ``getattr`` in the exporter stays branch-free.
    trace_id = None
    span_id = None

    def __init__(self, ts: int):
        self.ts = ts

    def args(self) -> dict:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        payload = ", ".join(f"{k}={v}" for k, v in self.args().items())
        return f"<{self.name} ts={self.ts} {payload}>"


class TimerTick(Event):
    """The virtual timer fired (drives every sampling profiler)."""

    __slots__ = ("tick",)
    name = "timer_tick"

    def __init__(self, ts: int, tick: int):
        super().__init__(ts)
        self.tick = tick

    def args(self) -> dict:
        return {"tick": self.tick}


class YieldpointTaken(Event):
    """A yieldpoint was *taken* (control word was armed).

    Records the site kind (prologue/epilogue/backedge) and the control
    word before and after the profiler handled it — the
    ``YP_ALL → YP_CBS → YP_NONE`` lifecycle of Figure 3 is read directly
    off these transitions.
    """

    __slots__ = ("kind", "flag_before", "flag_after")
    name = "yieldpoint"

    def __init__(self, ts: int, kind: int, flag_before: int, flag_after: int):
        super().__init__(ts)
        self.kind = kind
        self.flag_before = flag_before
        self.flag_after = flag_after

    def args(self) -> dict:
        return {
            "kind": KIND_NAMES.get(self.kind, str(self.kind)),
            "from": FLAG_NAMES.get(self.flag_before, str(self.flag_before)),
            "to": FLAG_NAMES.get(self.flag_after, str(self.flag_after)),
        }


class WindowOpen(Event):
    """A CBS profiling window opened (first yieldpoint after a tick)."""

    __slots__ = ("window",)
    name = "window_open"
    phase = "B"

    def __init__(self, ts: int, window: int):
        super().__init__(ts)
        self.window = window

    def args(self) -> dict:
        return {"window": self.window}


class WindowClose(Event):
    """A CBS window closed (sample budget exhausted)."""

    __slots__ = ("window", "samples", "duration")
    name = "window_close"
    phase = "E"

    def __init__(self, ts: int, window: int, samples: int, duration: int):
        super().__init__(ts)
        self.window = window
        self.samples = samples
        self.duration = duration

    def args(self) -> dict:
        return {
            "window": self.window,
            "samples": self.samples,
            "duration": self.duration,
        }


class StackSample(Event):
    """One stack-walk sample: the recorded caller→callee edge."""

    __slots__ = ("caller", "callsite_pc", "callee", "depth")
    name = "sample"

    def __init__(self, ts: int, caller: int, callsite_pc: int, callee: int, depth: int):
        super().__init__(ts)
        self.caller = caller
        self.callsite_pc = callsite_pc
        self.callee = callee
        self.depth = depth

    def args(self) -> dict:
        return {
            "caller": self.caller,
            "callsite_pc": self.callsite_pc,
            "callee": self.callee,
            "depth": self.depth,
        }


class Recompilation(Event):
    """The adaptive controller recompiled a method."""

    __slots__ = ("function", "level", "inlines", "size_before", "size_after")
    name = "recompile"

    def __init__(
        self,
        ts: int,
        function: int,
        level: int,
        inlines: int,
        size_before: int,
        size_after: int,
    ):
        super().__init__(ts)
        self.function = function
        self.level = level
        self.inlines = inlines
        self.size_before = size_before
        self.size_after = size_after

    def args(self) -> dict:
        return {
            "function": self.function,
            "level": self.level,
            "inlines": self.inlines,
            "size_before": self.size_before,
            "size_after": self.size_after,
        }


class InlineDecisionEvent(Event):
    """An inlining policy accepted or rejected a call site."""

    __slots__ = ("caller", "pc", "callee", "action", "accepted", "reason")
    name = "inline_decision"

    def __init__(
        self,
        ts: int,
        caller: int,
        pc: int,
        callee: int,
        action: str,
        accepted: bool,
        reason: str,
    ):
        super().__init__(ts)
        self.caller = caller
        self.pc = pc
        self.callee = callee
        self.action = action
        self.accepted = accepted
        self.reason = reason

    def args(self) -> dict:
        return {
            "caller": self.caller,
            "pc": self.pc,
            "callee": self.callee,
            "action": self.action,
            "accepted": self.accepted,
            "reason": self.reason,
        }


class CallTraced(Event):
    """One dynamic call (only emitted when ``Tracer.trace_calls`` is on;
    by default calls are counted in the metrics registry, not traced,
    to keep event volume bounded)."""

    __slots__ = ("caller", "callsite_pc", "callee")
    name = "call"

    def __init__(self, ts: int, caller: int, callsite_pc: int, callee: int):
        super().__init__(ts)
        self.caller = caller
        self.callsite_pc = callsite_pc
        self.callee = callee

    def args(self) -> dict:
        return {
            "caller": self.caller,
            "callsite_pc": self.callsite_pc,
            "callee": self.callee,
        }


class FleetPublish(Event):
    """The fleet publisher enqueued one DCG delta batch for upload.

    When the publisher stamps the delta with trace-span coordinates
    (``trace_id`` = the run id, ``span_id`` = ``run_id:seq``), this
    event opens the cross-process span: the Chrome exporter emits a
    flow-start record that the server-side :class:`FleetMerge` with the
    same ``span_id`` finishes, so the two offline traces stitch into
    one parented timeline.
    """

    __slots__ = ("seq", "edges", "weight", "trace_id", "span_id")
    name = "fleet_publish"
    flow = "start"

    def __init__(
        self,
        ts: int,
        seq: int,
        edges: int,
        weight: float,
        trace_id: str | None = None,
        span_id: str | None = None,
    ):
        super().__init__(ts)
        self.seq = seq
        self.edges = edges
        self.weight = weight
        self.trace_id = trace_id
        self.span_id = span_id

    def args(self) -> dict:
        args = {"seq": self.seq, "edges": self.edges, "weight": self.weight}
        if self.span_id is not None:
            args["trace_id"] = self.trace_id
            args["span_id"] = self.span_id
        return args


class FleetMerge(Event):
    """The fleet service merged one published delta into an aggregate.

    Carries the publisher's span coordinates when the delta arrived
    with them; the Chrome exporter turns that into the flow-finish half
    of the publish span (see :class:`FleetPublish`).
    """

    __slots__ = ("fingerprint", "edges", "runs", "total_weight", "trace_id", "span_id")
    name = "fleet_merge"
    flow = "finish"

    def __init__(
        self,
        ts: int,
        fingerprint: str,
        edges: int,
        runs: int,
        total_weight: float,
        trace_id: str | None = None,
        span_id: str | None = None,
    ):
        super().__init__(ts)
        self.fingerprint = fingerprint
        self.edges = edges
        self.runs = runs
        self.total_weight = total_weight
        self.trace_id = trace_id
        self.span_id = span_id

    def args(self) -> dict:
        args = {
            "fingerprint": self.fingerprint,
            "edges": self.edges,
            "runs": self.runs,
            "total_weight": self.total_weight,
        }
        if self.span_id is not None:
            args["trace_id"] = self.trace_id
            args["span_id"] = self.span_id
        return args


class WarmStart(Event):
    """The adaptive controller was seeded from an aggregated profile."""

    __slots__ = ("methods", "edges", "weight")
    name = "warm_start"

    def __init__(self, ts: int, methods: int, edges: int, weight: float):
        super().__init__(ts)
        self.methods = methods
        self.edges = edges
        self.weight = weight

    def args(self) -> dict:
        return {"methods": self.methods, "edges": self.edges, "weight": self.weight}


class PathsSummary(Event):
    """End-of-run Ball-Larus path-profiling figures (charged runs only).

    Emitted only when the attached :class:`repro.profiling.paths.PathTracker`
    charges virtual time: a charge-free tracker must leave the event
    stream byte-identical to a tracker-less run, so it records metrics
    but never an event.
    """

    __slots__ = ("mode", "total", "distinct", "increments", "windows")
    name = "paths_summary"

    def __init__(
        self,
        ts: int,
        mode: str,
        total: int,
        distinct: int,
        increments: int,
        windows: int,
    ):
        super().__init__(ts)
        self.mode = mode
        self.total = total
        self.distinct = distinct
        self.increments = increments
        self.windows = windows

    def args(self) -> dict:
        return {
            "mode": self.mode,
            "total": self.total,
            "distinct": self.distinct,
            "increments": self.increments,
            "windows": self.windows,
        }


class ScopeBegin(Event):
    """Start of a named duration scope (see :mod:`repro.telemetry.scopes`)."""

    __slots__ = ("label", "extra")
    name = "scope_begin"
    phase = "B"

    def __init__(self, ts: int, label: str, extra: dict | None = None):
        super().__init__(ts)
        self.label = label
        self.extra = extra or {}

    def args(self) -> dict:
        return {"label": self.label, **self.extra}


class ScopeEnd(Event):
    """End of a named duration scope."""

    __slots__ = ("label",)
    name = "scope_end"
    phase = "E"

    def __init__(self, ts: int, label: str):
        super().__init__(ts)
        self.label = label

    def args(self) -> dict:
        return {"label": self.label}


#: name → class, for parsers that rehydrate events from JSONL.
EVENT_TYPES = {
    cls.name: cls
    for cls in (
        TimerTick,
        YieldpointTaken,
        WindowOpen,
        WindowClose,
        StackSample,
        Recompilation,
        InlineDecisionEvent,
        CallTraced,
        FleetPublish,
        FleetMerge,
        WarmStart,
        PathsSummary,
        ScopeBegin,
        ScopeEnd,
    )
}
