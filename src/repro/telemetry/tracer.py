"""The structured event tracer.

One :class:`Tracer` instance observes one VM run (or a sequence of runs
in the steady-state harness).  It owns the event log and the metrics
registry, and is stamped by the VM's *virtual* clock so every event
lines up with the cost-model time the paper's figures are drawn in.

Attachment contract: the tracer hangs off ``vm.telemetry`` (default
``None``).  Every instrumentation site is guarded by a single
``is not None`` check, so the disabled path costs one attribute (or
cached-local) test and nothing else — observability never perturbs
virtual time, only wall time when enabled.

Use :meth:`Interpreter.attach_telemetry` (or :meth:`Tracer.attach`) to
wire a tracer to a VM *before* ``run()``; the interpreter caches the
hook in a local at loop entry, like the call observer.
"""

from __future__ import annotations

from repro.telemetry.events import (
    EVENT_TYPES,
    CallTraced,
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
from repro.telemetry.hostcounters import COUNTER, HOST_COUNTERS
from repro.telemetry.metrics import MetricsRegistry
from repro.vm.yieldpoint import KIND_NAMES


def _no_counter() -> None:
    """The counter bump of an event class that declares none."""


#: Default histogram bucket bounds (inclusive upper edges).
SAMPLES_PER_WINDOW_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
WINDOW_DURATION_BUCKETS = (100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000)
STACK_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class Tracer:
    """Collects typed events and aggregates metrics for one run."""

    def __init__(self, clock=None, trace_calls: bool = False):
        self.events: list = []
        self.metrics = MetricsRegistry()
        #: Callable returning the current virtual time; bound to the VM
        #: by :meth:`attach`.  Used by sites without a VM in hand (the
        #: inliner, scopes).
        self.clock = clock if clock is not None else (lambda: 0)
        #: Emit a CallTraced event per dynamic call.  Off by default:
        #: calls are only *counted* (metric ``calls.traced``) so traces
        #: stay bounded on call-heavy workloads.
        self.trace_calls = trace_calls

        metrics = self.metrics
        #: Per event class, the ``inc`` of the counter it declares (a
        #: no-op for classes without one), bumped by :meth:`_emit`.
        self._bump = {
            cls: metrics.counter(*cls.counter).inc if cls.counter else _no_counter
            for cls in EVENT_TYPES.values()
        }
        self._calls = self._bump[CallTraced]
        self._yp_by_kind = {
            kind: metrics.counter(f"yieldpoints.{name}", f"{name} yieldpoints taken")
            for kind, name in KIND_NAMES.items()
        }
        self._inline_accepted = metrics.counter(
            "inline.accepted", "call sites the inlining policy accepted"
        )
        self._inline_rejected = metrics.counter(
            "inline.rejected", "call sites the inlining policy rejected"
        )
        # Publisher outcome counters (worker-thread figures recorded at
        # close; metrics only, never events, so publishing configs keep
        # byte-identical event streams).
        self._fleet_batches_sent = metrics.counter(
            "fleet.batches_sent", "delta batches acknowledged by the fleet service"
        )
        self._fleet_batches_dropped = metrics.counter(
            "fleet.batches_dropped", "delta batches dropped (queue full or server dead)"
        )
        self._fleet_edges_sent = metrics.counter(
            "fleet.edges_sent", "DCG edges delivered to the fleet service"
        )
        self._fleet_server_dead = metrics.gauge(
            "fleet.server_dead", "1 when the publisher declared the server dead"
        )
        #: Per host-counter row, its metric's update: add a delta or set.
        self._host = {
            row.name: metrics.counter(row.name, row.help).inc
            if row.kind == COUNTER
            else metrics.gauge(row.name, row.help).set
            for row in HOST_COUNTERS
        }
        self._samples_per_window = metrics.histogram(
            "cbs.samples_per_window",
            SAMPLES_PER_WINDOW_BUCKETS,
            "samples recorded per CBS window",
        )
        self._window_duration = metrics.histogram(
            "cbs.window_duration",
            WINDOW_DURATION_BUCKETS,
            "CBS window duration in virtual time units",
        )
        self._stack_depth = metrics.histogram(
            "samples.stack_depth",
            STACK_DEPTH_BUCKETS,
            "guest stack depth at each sample",
        )

        # Open-window bookkeeping (one window at a time, per Figure 3).
        self._window_id = 0
        self._window_open_ts: int | None = None
        self._window_samples = 0
        # Open duration-scope labels, for balancing B/E pairs on finalize.
        self._open_scopes: list[str] = []

    # -- attachment ---------------------------------------------------------------

    def attach(self, vm) -> None:
        """Bind this tracer's clock to ``vm``'s virtual time."""
        self.clock = lambda: vm.time

    def _emit(self, event) -> None:
        """Bump the event's declared counter and append it to the log."""
        self._bump[type(event)]()
        self.events.append(event)

    # -- VM-facing hook methods (sites pass the virtual timestamp) ----------------

    def on_tick(self, ts: int, tick: int) -> None:
        self._emit(TimerTick(ts, tick))

    def on_yieldpoint(self, ts: int, kind: int, flag_before: int) -> YieldpointTaken:
        """Record a taken yieldpoint; returns the event so the caller
        can fill in ``flag_after`` once the profiler has handled it."""
        by_kind = self._yp_by_kind.get(kind)
        if by_kind is not None:
            by_kind.inc()
        event = YieldpointTaken(ts, kind, flag_before, flag_before)
        self._emit(event)
        return event

    def on_call(self, ts: int, caller: int, callsite_pc: int, callee: int) -> None:
        self._calls()  # every call counts; only traced ones are events
        if self.trace_calls:
            self.events.append(CallTraced(ts, caller, callsite_pc, callee))

    def on_host_counters(self, values: dict) -> None:
        """Record one run's :mod:`~repro.telemetry.hostcounters`: each
        counter row's delta, each gauge row's run-end value.  Metrics
        only, never events: a run's event stream stays byte-identical
        with fusion, caches or the JIT off.
        """
        host = self._host
        for name, value in values.items():
            host[name](value)

    # -- profiler-facing hook methods ---------------------------------------------

    def on_window_open(self, ts: int) -> None:
        if self._window_open_ts is not None:
            # Defensive: a window never closed (shouldn't happen in CBS,
            # but don't let B/E pairs go unbalanced if a profiler misuses
            # the hook).
            self.on_window_close(ts)
        self._window_id += 1
        self._window_open_ts = ts
        self._window_samples = 0
        self._emit(WindowOpen(ts, self._window_id))

    def on_window_close(self, ts: int) -> None:
        if self._window_open_ts is None:
            return
        duration = ts - self._window_open_ts
        samples = self._window_samples
        self._samples_per_window.observe(samples)
        self._window_duration.observe(duration)
        self._emit(WindowClose(ts, self._window_id, samples, duration))
        self._window_open_ts = None
        self._window_samples = 0

    def on_sample(
        self, ts: int, caller: int, callsite_pc: int, callee: int, depth: int
    ) -> None:
        self._stack_depth.observe(depth)
        if self._window_open_ts is not None:
            self._window_samples += 1
        self._emit(StackSample(ts, caller, callsite_pc, callee, depth))

    # -- adaptive / inlining hook methods -------------------------------------------

    def on_recompile(
        self,
        ts: int,
        function: int,
        level: int,
        inlines: int,
        size_before: int,
        size_after: int,
    ) -> None:
        self._emit(Recompilation(ts, function, level, inlines, size_before, size_after))

    def on_inline_decision(
        self,
        caller: int,
        pc: int,
        callee: int,
        action: str,
        accepted: bool,
        reason: str,
    ) -> None:
        if accepted:
            self._inline_accepted.inc()
        else:
            self._inline_rejected.inc()
        self._emit(
            InlineDecisionEvent(self.clock(), caller, pc, callee, action, accepted, reason)
        )

    # -- fleet hook methods -----------------------------------------------------------

    def on_fleet_publish(
        self,
        ts: int,
        seq: int,
        edges: int,
        weight: float,
        trace_id: str | None = None,
        span_id: str | None = None,
    ) -> None:
        self._emit(FleetPublish(ts, seq, edges, weight, trace_id, span_id))

    def on_fleet_merge(
        self,
        fingerprint: str,
        edges: int,
        runs: int,
        total_weight: float,
        trace_id: str | None = None,
        span_id: str | None = None,
    ) -> None:
        self._emit(
            FleetMerge(
                self.clock(), fingerprint, edges, runs, total_weight, trace_id, span_id
            )
        )

    def on_fleet_outcome(
        self, batches_sent: int, batches_dropped: int, edges_sent: int, server_dead: bool
    ) -> None:
        """Record the publisher's end-of-run outcome counters (metrics
        only — called once at ``FleetPublisher.close`` after the worker
        thread has joined, so the figures are final)."""
        self._fleet_batches_sent.inc(batches_sent)
        self._fleet_batches_dropped.inc(batches_dropped)
        self._fleet_edges_sent.inc(edges_sent)
        self._fleet_server_dead.set(1 if server_dead else 0)

    def on_warm_start(self, ts: int, methods: int, edges: int, weight: float) -> None:
        self._emit(WarmStart(ts, methods, edges, weight))

    # -- scopes ----------------------------------------------------------------------

    def scope_begin(self, label: str, **extra) -> None:
        self._open_scopes.append(label)
        self._emit(ScopeBegin(self.clock(), label, extra))

    def scope_end(self, label: str) -> None:
        if label in self._open_scopes:
            self._open_scopes.remove(label)
        self._emit(ScopeEnd(self.clock(), label))

    # -- lifecycle --------------------------------------------------------------------

    def finalize(self, ts: int | None = None) -> None:
        """Close any dangling window/scopes (keeps Chrome B/E balanced).

        Safe to call more than once; exporters call it automatically.
        """
        if ts is None:
            ts = self.clock()
        self.on_window_close(ts)
        while self._open_scopes:
            self.scope_end(self._open_scopes[-1])

    # -- summaries ----------------------------------------------------------------------

    def counts_by_event(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.name] = counts.get(event.name, 0) + 1
        return counts

    def describe(self) -> str:
        parts = [f"{name}={count}" for name, count in sorted(self.counts_by_event().items())]
        return f"Tracer({len(self.events)} events: {', '.join(parts)})"
