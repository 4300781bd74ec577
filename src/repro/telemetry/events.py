"""Typed telemetry events.

Every interesting transition in the profiling pipeline is modeled as a
small ``__slots__`` event object stamped with the VM's *virtual* time
(the same clock the cost model advances), so traces line up exactly
with the simulation the paper reasons about — when a window opened,
which yieldpoint fired, where a sample landed.

An event kind is one class, and the class is its whole declaration:

* ``name`` — the event-taxonomy name (stable; exporters and the
  ``repro-mini report`` summarizer key off it),
* ``phase`` — the Chrome ``trace_event`` phase this event maps to
  (``"i"`` instant, ``"B"``/``"E"`` duration begin/end),
* ``lane`` — the Chrome thread ``(tid, name)`` it is drawn on,
* ``__slots__`` — its payload, in constructor-argument order after
  ``ts``; ``args()`` returns the slots in that order,
* ``counter`` — the ``(metric name, help)`` of the tracer counter each
  event bumps, or ``None``.

The tracer registers the counters, the Chrome exporter reads the lanes
and ``repro-mini report`` reads the counter names off these classes, so
a new kind is one class here plus its ``Tracer.on_*`` hook.

Events are cheap to construct but not free; emitting is always guarded
by a ``tracer is not None`` check at the instrumentation site so the
disabled path costs a single attribute (or local-variable) check.
"""

from __future__ import annotations

from repro.vm.yieldpoint import KIND_NAMES

#: Human-readable names for yieldpoint control-word states.
FLAG_NAMES = {0: "YP_NONE", 1: "YP_ALL", -1: "YP_CBS"}

#: Chrome trace lanes: one synthetic thread per pipeline layer so the
#: timeline reads top-to-bottom as vm → profiler → adaptive → harness.
VM_LANE = (1, "vm")
PROFILER_LANE = (2, "profiler")
ADAPTIVE_LANE = (3, "adaptive")
HARNESS_LANE = (4, "harness")
FLEET_LANE = (5, "fleet")


class Event:
    """Base class: a named, virtual-time-stamped occurrence.

    ``Event(ts, *payload)`` fills the subclass's slots in order; slots
    past the values given are ``None`` (the optional span coordinates).
    """

    __slots__ = ("ts",)

    name = "event"
    phase = "i"  # Chrome trace_event phase
    lane = VM_LANE
    counter: tuple[str, str] | None = None
    #: Cross-process flow role: ``"start"``/``"finish"`` events carrying
    #: a ``span_id`` additionally emit a Chrome flow record, which is
    #: how one publish is followed from a VM's trace into the fleet
    #: service's (see docs/OBSERVABILITY.md).
    flow: str | None = None
    #: Default span coordinates; span-carrying subclasses override with
    #: real slots so ``getattr`` in the exporter stays branch-free.
    trace_id = None
    span_id = None

    def __init__(self, ts: int, *payload):
        fields = self.__slots__
        if len(payload) > len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} payload values, "
                f"got {len(payload)}"
            )
        for index, field in enumerate(fields):
            setattr(self, field, payload[index] if index < len(payload) else None)
        self.ts = ts

    def args(self) -> dict:
        """The payload as a dict of JSON-able values, in slot order
        (span coordinates only when the event carries a span)."""
        args = {field: getattr(self, field) for field in self.__slots__}
        if self.span_id is None:
            args.pop("trace_id", None)
            args.pop("span_id", None)
        return args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        payload = ", ".join(f"{k}={v}" for k, v in self.args().items())
        return f"<{self.name} ts={self.ts} {payload}>"


class TimerTick(Event):
    """The virtual timer fired (drives every sampling profiler)."""

    __slots__ = ("tick",)
    name = "timer_tick"
    counter = ("vm.ticks", "virtual timer interrupts")


class YieldpointTaken(Event):
    """A yieldpoint was *taken* (control word was armed).

    Records the site kind (prologue/epilogue/backedge) and the control
    word before and after the profiler handled it — the
    ``YP_ALL → YP_CBS → YP_NONE`` lifecycle of Figure 3 is read directly
    off these transitions.
    """

    __slots__ = ("kind", "flag_before", "flag_after")
    name = "yieldpoint"
    counter = ("yieldpoints.taken", "yieldpoints taken (all kinds)")

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
    lane = PROFILER_LANE
    counter = ("cbs.windows_opened", "CBS profiling windows opened")


class WindowClose(Event):
    """A CBS window closed (sample budget exhausted)."""

    __slots__ = ("window", "samples", "duration")
    name = "window_close"
    phase = "E"
    lane = PROFILER_LANE
    counter = ("cbs.windows_closed", "CBS profiling windows closed (budget exhausted)")


class StackSample(Event):
    """One stack-walk sample: the recorded caller→callee edge."""

    __slots__ = ("caller", "callsite_pc", "callee", "depth")
    name = "sample"
    lane = PROFILER_LANE
    counter = ("samples.taken", "stack-walk samples recorded")


class Recompilation(Event):
    """The adaptive controller recompiled a method."""

    __slots__ = ("function", "level", "inlines", "size_before", "size_after")
    name = "recompile"
    lane = ADAPTIVE_LANE
    counter = ("adaptive.recompilations", "adaptive recompilation decisions")


class InlineDecisionEvent(Event):
    """An inlining policy accepted or rejected a call site (counted as
    ``inline.accepted`` or ``inline.rejected`` by the tracer)."""

    __slots__ = ("caller", "pc", "callee", "action", "accepted", "reason")
    name = "inline_decision"
    lane = ADAPTIVE_LANE


class CallTraced(Event):
    """One dynamic call.  Only emitted when ``Tracer.trace_calls`` is
    on; the counter counts every call either way, so event volume stays
    bounded by default."""

    __slots__ = ("caller", "callsite_pc", "callee")
    name = "call"
    counter = ("calls.traced", "dynamic calls observed")


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
    lane = FLEET_LANE
    counter = ("fleet.publishes", "DCG delta batches handed to the fleet publisher")
    flow = "start"


class FleetMerge(Event):
    """The fleet service merged one published delta into an aggregate.

    Carries the publisher's span coordinates when the delta arrived
    with them; the Chrome exporter turns that into the flow-finish half
    of the publish span (see :class:`FleetPublish`).
    """

    __slots__ = ("fingerprint", "edges", "runs", "total_weight", "trace_id", "span_id")
    name = "fleet_merge"
    lane = FLEET_LANE
    counter = ("fleet.merges", "published deltas merged into fleet aggregates")
    flow = "finish"


class WarmStart(Event):
    """The adaptive controller was seeded from an aggregated profile."""

    __slots__ = ("methods", "edges", "weight")
    name = "warm_start"
    lane = FLEET_LANE
    counter = ("fleet.warm_starts", "adaptive controllers seeded from fleet profiles")


class ScopeBegin(Event):
    """Start of a named duration scope (see :mod:`repro.telemetry.scopes`)."""

    __slots__ = ("label", "extra")
    name = "scope_begin"
    phase = "B"
    lane = HARNESS_LANE

    def args(self) -> dict:
        return {"label": self.label, **(self.extra or {})}


class ScopeEnd(Event):
    """End of a named duration scope."""

    __slots__ = ("label",)
    name = "scope_end"
    phase = "E"
    lane = HARNESS_LANE


#: name → class of every event kind: each subclass of :class:`Event`,
#: in definition order.
EVENT_TYPES = {cls.name: cls for cls in Event.__subclasses__()}
