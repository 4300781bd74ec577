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
    CallTraced,
    FleetMerge,
    FleetPublish,
    InlineDecisionEvent,
    PathsSummary,
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
from repro.telemetry.metrics import MetricsRegistry
from repro.vm.yieldpoint import KIND_NAMES

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
        # Pre-bound metrics so the per-event update is one method call.
        self._ticks = metrics.counter("vm.ticks", "virtual timer interrupts")
        self._yieldpoints = metrics.counter(
            "yieldpoints.taken", "yieldpoints taken (all kinds)"
        )
        self._yp_by_kind = {
            kind: metrics.counter(f"yieldpoints.{name}", f"{name} yieldpoints taken")
            for kind, name in KIND_NAMES.items()
        }
        self._windows_opened = metrics.counter(
            "cbs.windows_opened", "CBS profiling windows opened"
        )
        self._windows_closed = metrics.counter(
            "cbs.windows_closed", "CBS profiling windows closed (budget exhausted)"
        )
        self._samples = metrics.counter("samples.taken", "stack-walk samples recorded")
        self._calls = metrics.counter("calls.traced", "dynamic calls observed")
        self._recompilations = metrics.counter(
            "adaptive.recompilations", "adaptive recompilation decisions"
        )
        self._inline_accepted = metrics.counter(
            "inline.accepted", "call sites the inlining policy accepted"
        )
        self._inline_rejected = metrics.counter(
            "inline.rejected", "call sites the inlining policy rejected"
        )
        self._fleet_publishes = metrics.counter(
            "fleet.publishes", "DCG delta batches handed to the fleet publisher"
        )
        self._fleet_merges = metrics.counter(
            "fleet.merges", "published deltas merged into fleet aggregates"
        )
        self._warm_starts = metrics.counter(
            "fleet.warm_starts", "adaptive controllers seeded from fleet profiles"
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
        self._fused_dispatches = metrics.counter(
            "fusion.dispatches", "superinstruction dispatches executed"
        )
        self._fusion_deopts = metrics.counter(
            "fusion.deopts", "fused groups re-executed step-wise at a tick boundary"
        )
        self._fused_sites = metrics.gauge(
            "fusion.sites", "superinstruction sites compiled by the code cache"
        )
        self._ic_hits = metrics.counter(
            "ic.hits", "virtual calls dispatched through an inline-cache binding"
        )
        self._ic_misses = metrics.counter(
            "ic.misses", "inline-cache slow-path dispatches (including quickening)"
        )
        self._ic_transitions = metrics.counter(
            "ic.transitions", "inline-cache state growths (mono→poly→megamorphic)"
        )
        self._ic_sites = metrics.gauge(
            "ic.sites", "virtual call sites quickened with an inline cache"
        )
        self._ic_megamorphic = metrics.gauge(
            "ic.megamorphic_sites", "inline-cache sites that overflowed to megamorphic"
        )
        self._jit_compiles = metrics.counter(
            "jit.compiles", "methods compiled to generated Python (opt level 3)"
        )
        self._jit_entries = metrics.counter(
            "jit.entries", "method entries that ran the compiled body"
        )
        self._jit_osr_entries = metrics.counter(
            "jit.osr_entries", "loop backedges that re-entered a compiled body"
        )
        self._jit_deopts = metrics.counter(
            "jit.deopts", "de-optimizations at tick/step boundaries"
        )
        self._jit_guard_exits = metrics.counter(
            "jit.guard_exits", "IC guard misses and fault-precondition exits"
        )
        self._jit_call_exits = metrics.counter(
            "jit.call_exits", "exits at call sites the template cannot inline"
        )
        self._jit_return_exits = metrics.counter(
            "jit.return_exits", "exits at returns (interpreter pops the frame)"
        )
        self._jit_leaf_calls = metrics.counter(
            "jit.leaf_calls", "leaf-template calls inlined inside compiled bodies"
        )
        self._jit_direct_calls = metrics.counter(
            "jit.direct_calls",
            "calls from one compiled body into another, returned in generated code",
        )
        self._jit_unwinds = metrics.counter(
            "jit.unwinds",
            "directly entered activations handed back to the interpreter",
        )
        self._jit_poly_calls = metrics.counter(
            "jit.poly_calls",
            "overflow/megamorphic calls completed by a site's polymorphic tail",
        )
        self._jit_methods_compiled = metrics.gauge(
            "jit.methods_compiled", "methods running a compiled body at run end"
        )
        self._jit_methods_eligible = metrics.gauge(
            "jit.methods_eligible",
            "methods compiled or still counting on the promotion trampoline",
        )
        self._jit_compile_s = metrics.counter(
            "jit.compile_s", "host wall seconds spent in the template compiler"
        )
        self._paths_total = metrics.counter(
            "paths.total", "Ball-Larus path records collected"
        )
        self._paths_distinct = metrics.gauge(
            "paths.distinct", "distinct (function, path id) pairs observed"
        )
        self._paths_increments = metrics.counter(
            "paths.increments", "charged path edge-counter increments"
        )
        self._paths_windows = metrics.counter(
            "paths.windows", "CBS path-sampling windows opened"
        )
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

    # -- VM-facing hook methods (sites pass the virtual timestamp) ----------------

    def on_tick(self, ts: int, tick: int) -> None:
        self._ticks.inc()
        self.events.append(TimerTick(ts, tick))

    def on_yieldpoint(self, ts: int, kind: int, flag_before: int) -> YieldpointTaken:
        """Record a taken yieldpoint; returns the event so the caller
        can fill in ``flag_after`` once the profiler has handled it."""
        self._yieldpoints.inc()
        by_kind = self._yp_by_kind.get(kind)
        if by_kind is not None:
            by_kind.inc()
        event = YieldpointTaken(ts, kind, flag_before, flag_before)
        self.events.append(event)
        return event

    def on_call(self, ts: int, caller: int, callsite_pc: int, callee: int) -> None:
        self._calls.inc()
        if self.trace_calls:
            self.events.append(CallTraced(ts, caller, callsite_pc, callee))

    def on_fusion_summary(self, dispatches: int, deopts: int, sites: int) -> None:
        """Record one run's superinstruction statistics.

        Metrics only, deliberately no events: fusion is a host-level
        dispatch strategy, and the *event stream* of a fused run must
        stay byte-identical to the unfused run it mirrors.  Dispatch and
        deopt figures arrive as per-run deltas (counters accumulate over
        a steady-state sequence); ``sites`` is the code cache's running
        total, so it lands in a gauge.
        """
        self._fused_dispatches.inc(dispatches)
        self._fusion_deopts.inc(deopts)
        self._fused_sites.set(sites)

    def on_ic_summary(
        self,
        hits: int,
        misses: int,
        transitions: int,
        sites: int,
        megamorphic_sites: int,
    ) -> None:
        """Record one run's inline-cache statistics.

        Same shape and rationale as :meth:`on_fusion_summary`: metrics
        only, never events, so an IC-on run's event stream stays
        byte-identical to the IC-off run.  Hit/miss/transition figures
        are per-run deltas; the site counts are code-cache running
        totals and land in gauges.
        """
        self._ic_hits.inc(hits)
        self._ic_misses.inc(misses)
        self._ic_transitions.inc(transitions)
        self._ic_sites.set(sites)
        self._ic_megamorphic.set(megamorphic_sites)

    def on_jit_summary(
        self,
        compiles: int,
        entries: int,
        osr_entries: int,
        deopts: int,
        guard_exits: int,
        call_exits: int,
        return_exits: int,
        leaf_calls: int,
        direct_calls: int,
        unwinds: int,
        methods_compiled: int,
        methods_eligible: int,
        compile_s: float,
        poly_calls: int,
    ) -> None:
        """Record one run's template-JIT statistics.

        Same shape and rationale as :meth:`on_fusion_summary`: metrics
        only, never events, so a JIT-on run's event stream stays
        byte-identical to the JIT-off run.  The counters are per-run
        deltas; every entry pairs with exactly one exit, so
        ``entries + osr_entries == deopts + guard_exits + call_exits +
        return_exits`` for any completed run.  The method counts are the
        code cache's population at run end and land in gauges;
        ``compile_s`` is host wall time, the one figure here that does
        not repeat from run to run.
        """
        self._jit_compiles.inc(compiles)
        self._jit_entries.inc(entries)
        self._jit_osr_entries.inc(osr_entries)
        self._jit_deopts.inc(deopts)
        self._jit_guard_exits.inc(guard_exits)
        self._jit_call_exits.inc(call_exits)
        self._jit_return_exits.inc(return_exits)
        self._jit_leaf_calls.inc(leaf_calls)
        self._jit_direct_calls.inc(direct_calls)
        self._jit_unwinds.inc(unwinds)
        self._jit_poly_calls.inc(poly_calls)
        self._jit_methods_compiled.set(methods_compiled)
        self._jit_methods_eligible.set(methods_eligible)
        self._jit_compile_s.inc(compile_s)

    def on_paths_summary(self, tracker) -> None:
        """Record one run's Ball-Larus path-profiling statistics.

        Metrics always; a ``paths_summary`` *event* only when the
        tracker charges virtual time.  A charge-free tracker is a pure
        rider — its run must keep a byte-identical event stream to a
        tracker-less run (the differential fuzzer's identity cells
        depend on it), so only the host-side metrics move.
        """
        s = tracker.summary()
        self._paths_total.inc(s["total"])
        self._paths_distinct.set(s["distinct"])
        self._paths_increments.inc(s["increments"])
        self._paths_windows.inc(s["windows"])
        if tracker.charge:
            self.events.append(
                PathsSummary(
                    self.clock(),
                    s["mode"],
                    s["total"],
                    s["distinct"],
                    s["increments"],
                    s["windows"],
                )
            )

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
        self._windows_opened.inc()
        self.events.append(WindowOpen(ts, self._window_id))

    def on_window_close(self, ts: int) -> None:
        if self._window_open_ts is None:
            return
        duration = ts - self._window_open_ts
        samples = self._window_samples
        self._windows_closed.inc()
        self._samples_per_window.observe(samples)
        self._window_duration.observe(duration)
        self.events.append(WindowClose(ts, self._window_id, samples, duration))
        self._window_open_ts = None
        self._window_samples = 0

    def on_sample(
        self, ts: int, caller: int, callsite_pc: int, callee: int, depth: int
    ) -> None:
        self._samples.inc()
        self._stack_depth.observe(depth)
        if self._window_open_ts is not None:
            self._window_samples += 1
        self.events.append(StackSample(ts, caller, callsite_pc, callee, depth))

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
        self._recompilations.inc()
        self.events.append(
            Recompilation(ts, function, level, inlines, size_before, size_after)
        )

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
        self.events.append(
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
        self._fleet_publishes.inc()
        self.events.append(FleetPublish(ts, seq, edges, weight, trace_id, span_id))

    def on_fleet_merge(
        self,
        fingerprint: str,
        edges: int,
        runs: int,
        total_weight: float,
        trace_id: str | None = None,
        span_id: str | None = None,
    ) -> None:
        self._fleet_merges.inc()
        self.events.append(
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
        self._warm_starts.inc()
        self.events.append(WarmStart(ts, methods, edges, weight))

    # -- scopes ----------------------------------------------------------------------

    def scope_begin(self, label: str, **extra) -> None:
        self._open_scopes.append(label)
        self.events.append(ScopeBegin(self.clock(), label, extra or None))

    def scope_end(self, label: str) -> None:
        if label in self._open_scopes:
            self._open_scopes.remove(label)
        self.events.append(ScopeEnd(self.clock(), label))

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
