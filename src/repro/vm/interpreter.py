"""The Mini VM bytecode interpreter.

A single flat dispatch loop with the current frame's state cached in
local variables.  Virtual time advances by the cost model's price of
every instruction; a virtual timer fires whenever time crosses the next
tick boundary, driving the sampling profilers through the yieldpoint
mechanism described in the paper.

Dispatch is *quickened*: the loop executes each method's fused views
(``CompiledMethod.fops``/``fcosts``), in which hot adjacent instruction
groups were rewritten into superinstructions by :mod:`repro.vm.fuse`.
A superinstruction charges the summed cost of its components up front;
whenever that charge would cross the next tick boundary the loop
*de-quickens* — swaps its cached views back to the raw arrays and
re-executes the group one instruction at a time — so the tick fires on
exactly the same instruction at exactly the same virtual time as the
unfused interpreter, and everything the paper measures (time, ticks,
yieldpoints, steps, DCG edges, telemetry) is bit-identical.  The raw
view is restored immediately after the timer is serviced; because a
pending tick always fires within the group (the group's cost crossed
the boundary) the de-quickened window never survives a call or return.

Profiling hook points:

* **timer tick** — ``profiler.handle_timer(vm)`` (sets the yieldpoint
  control word; for async samplers like Whaley's this is also where the
  sample is taken),
* **taken yieldpoint** — ``profiler.handle_yieldpoint(vm, kind)`` at
  prologues/epilogues when the control word is non-zero and at backedges
  when it is positive,
* **call observer** — ``call_observer(caller_index, callsite_pc,
  callee_index)`` on *every* dynamic call, with zero virtual cost of
  its own; this is how the exhaustive (perfect) profiler is
  implemented.  Install with :meth:`Interpreter.add_call_observer`.
  The notification comes after the call is resolved and charged and
  *before* the calling sequence is chosen (frame push or frameless leaf
  template), so an observer may charge ``vm.time`` — the charge is
  accounted before the "could a tick land inside the body" test — but
  may not assume a callee frame exists or will ever exist.

A fourth, passive hook is telemetry: ``vm.telemetry`` (default None,
set via :meth:`Interpreter.attach_telemetry`) receives tick,
yieldpoint-transition, and call notifications (the last at the same
point as the observer, right after it).  Telemetry charges no
virtual time — a traced run is bit-identical to an untraced one — and
the disabled path costs one flag test per call site (observer and
tracer share it) plus one ``is not None`` check per tick/yieldpoint.
"""

from __future__ import annotations

from repro.bytecode.program import Program
from repro.telemetry import hostcounters
from repro.vm import ic as icache
from repro.vm.config import VMConfig, jikes_config
from repro.vm.errors import StepLimitExceeded, VMError
from repro.vm.runtime import CodeCache, CompiledMethod
from repro.vm.yieldpoint import YP_NONE

#: Locals list installed on recycled frames between uses, so a pooled
#: frame doesn't pin its last activation's heap values alive.  The call
#: path always assigns fresh locals before a recycled frame runs.
_FREED_LOCALS: list = []


def _after(previous, fn):
    """``fn`` alone, or a hook that runs ``previous`` and then ``fn``."""
    if previous is None:
        return fn

    def chained(*args):
        previous(*args)
        fn(*args)

    return chained


class Frame:
    """One activation record."""

    __slots__ = ("method", "pc", "stack", "locals", "callsite_pc")

    def __init__(self, method: CompiledMethod, locals_: list, callsite_pc: int):
        self.method = method
        self.pc = 0
        self.stack: list = []
        self.locals = locals_
        #: pc of the call instruction in the *caller's* current code
        #: (-1 for the entry frame).
        self.callsite_pc = callsite_pc


class Interpreter:
    """Executes a :class:`Program` under a :class:`VMConfig`."""

    def __init__(
        self,
        program: Program,
        config: VMConfig | None = None,
        code_cache: CodeCache | None = None,
    ):
        self.program = program
        self.config = config if config is not None else jikes_config()
        self.code_cache = (
            code_cache
            if code_cache is not None
            else CodeCache(
                program,
                self.config.cost_model,
                fuse=self.config.fuse,
                ic=self.config.ic,
            )
        )
        self.vtables: list[dict[int, int]] = [cls.vtable for cls in program.classes]
        #: Dense dispatch rows for the inline caches' megamorphic path.
        self.flat_vtables: list[list[int]] = program.flat_dispatch_tables()
        self.class_field_counts = [cls.num_fields for cls in program.classes]
        self.class_field_defaults = program.field_default_templates()
        self.class_ancestors = [cls.ancestors for cls in program.classes]

        # Mutable execution state.
        self.frames: list[Frame] = []
        self.time = 0
        self.steps = 0
        self.ticks = 0
        self.call_count = 0
        self.yieldpoint_flag = YP_NONE
        self.next_tick = self.config.timer_interval
        self.output: list[int] = []
        self.finished = False

        self._seen = [False] * len(program.functions)
        self.methods_executed = 0

        # Host-level dispatch statistics (no virtual-time effect): the
        # fusion, inline-cache and JIT counters of the host-counter table.
        for attr in hostcounters.VM_ATTRS:
            setattr(self, attr, 0)
        #: ``(method, JitCode)`` for every body this VM compiled,
        #: replaced ones included: the per-site exit counts.
        self.jit_bodies: list = []
        self.jit_manager = None
        self._frame_pool: list[Frame] = []

        # Hooks.
        self.profiler = None
        self.call_observer = None
        self.tick_hook = None  # called after profiler on each tick (adaptive system)
        self.telemetry = None  # structured event tracer (repro.telemetry.Tracer)
        self.flight = None  # flight recorder (repro.telemetry.ring.FlightRecorder)

    # -- hook management -------------------------------------------------------

    def attach_profiler(self, profiler) -> None:
        self.profiler = profiler
        profiler.attach(self)

    def attach_telemetry(self, tracer) -> None:
        """Install a telemetry tracer (before ``run()``: the main loop
        caches the hook in a local at entry, like the call observer)."""
        self.telemetry = tracer
        tracer.attach(self)

    def add_call_observer(self, fn) -> None:
        """Install ``fn(caller_index, callsite_pc, callee_index)`` on the
        call-observer hook (before ``run()``), after any observer already
        there.  A lone observer is installed unwrapped, so the common
        case pays no extra Python call per dynamic call."""
        self.call_observer = _after(self.call_observer, fn)

    def chain_tick_hook(self, fn) -> None:
        """Run ``fn(vm)`` on each tick, after any hook already there."""
        self.tick_hook = _after(self.tick_hook, fn)

    def attach_flight(self, recorder) -> None:
        """Install a flight recorder: a per-tick heartbeat on the tick
        hook chain (after any adaptive system and publisher — ring-buffer
        writes only, no I/O, no virtual-time charge) plus fault and
        run-end snapshots from ``run()``."""
        self.flight = recorder
        self.chain_tick_hook(recorder.on_tick)

    def charge(self, units: int) -> None:
        """Advance virtual time (used by profiler handlers)."""
        self.time += units

    # -- stack walking (used by profilers; costs charged by callers) -----------

    def current_edge(self) -> tuple[int, int, int] | None:
        """The call edge of the newest frame: (caller, callsite pc, callee).

        Coordinates are *baseline*: when the caller is an optimizer-
        rewritten version, the call instruction's inline-map origin maps
        the site back to its original function and pc (so samples taken
        in recompiled or inlined code still line up with the call graph
        the policies plan against).  Returns ``None`` for the entry
        frame.
        """
        if len(self.frames) < 2:
            return None
        callee = self.frames[-1]
        caller = self.frames[-2]
        pc = callee.callsite_pc
        origin = caller.method.origins[pc]
        if origin is None:
            return (caller.method.index, pc, callee.method.index)
        return (origin[0], origin[1], callee.method.index)

    def stack_snapshot(self, max_depth: int | None = None) -> list[int]:
        """Function indices from the top of stack downward."""
        frames = self.frames
        if max_depth is None:
            return [frame.method.index for frame in reversed(frames)]
        if max_depth <= 0:
            return []
        # Slice the deep end off *before* walking: profilers sample with
        # small depth limits on arbitrarily deep stacks.
        return [frame.method.index for frame in reversed(frames[-max_depth:])]

    def _step_limit(
        self, time, steps, call_count, fused_n, deopts, frame, method, pc
    ) -> StepLimitExceeded:
        """Sync loop-local state and build the instruction-budget error.

        Returned (not raised) so every check site in the hot loop is a
        single ``raise self._step_limit(...)`` expression; syncing here
        keeps ``vm.time``/``vm.steps`` accurate for the caller even
        though the loop aborts mid-dispatch.
        """
        self._sync(time, steps, call_count, fused_n, deopts, frame, pc)
        return StepLimitExceeded(
            f"exceeded {self.config.max_steps} interpreted instructions",
            method.function.qualified_name,
            pc,
        )

    def _sync(self, time, steps, call_count, fused_n, deopts, frame, pc) -> None:
        """Write the loop-local execution counters back to the VM.

        Called on every path that leaves the hot loop abnormally so the
        failure transcript is exact — ``vm.time``/``vm.steps``/
        ``vm.call_count`` at the moment of the fault, not at the last
        timer tick — which is what lets differential runs compare error
        states bit-for-bit across fuse/ic/profiler/telemetry configs.
        """
        self.time = time
        self.steps = steps
        self.call_count = call_count
        self.fused_dispatches = fused_n
        self.fusion_deopts = deopts
        frame.pc = pc

    def _fault(
        self, exc, message, time, steps, call_count, fused_n, deopts, frame, method, pc
    ) -> VMError:
        """Sync loop-local state and build a guest fault.

        Same shape as :meth:`_step_limit`: returned (not raised) so
        every fault site in the hot loop stays a single ``raise
        self._fault(...)`` expression.
        """
        self._sync(time, steps, call_count, fused_n, deopts, frame, pc)
        return exc(message, method.function.qualified_name, pc)

    # -- inline caches (host-level; see repro.vm.ic) -----------------------------

    @property
    def ic_hits(self) -> int:
        """Virtual calls an inline-cache binding dispatched: every call
        the receiver cells counted, less the slow-path misses."""
        cache = self.code_cache
        return cache.receiver_cell_total() - self.ic_misses if cache.ic else 0

    def _missing_selector(self, class_index, selector, method, pc) -> VMError:
        """Build the no-such-method error for a failed virtual dispatch
        (same message whether raised from the dict path, the flat
        tables, or a cache miss)."""
        name, argc = self.program.selectors[selector]
        cls = self.program.classes[class_index].name
        return VMError(
            f"class {cls!r} does not understand {name}/{argc}",
            method.function.qualified_name,
            pc,
        )

    def _quicken_virtual(self, method, pc, rclass, callee, nargs) -> None:
        """First execution of a ``CALL_VIRTUAL`` site: create its cache
        entry with slot 0 bound to this receiver class, count the call
        in the site's shared receiver cell, and rewrite ``fops[pc]`` so
        the next execution dispatches through the cache.

        The receiver cells are keyed by *baseline* coordinates (the
        inline-map origin), so a recompiled or inlined version of the
        site keeps counting into the same cells — the profile stays
        exact across recompilation.
        """
        cache = self.code_cache
        origin = method.origins[pc]
        site = (method.index, pc) if origin is None else (origin[0], origin[1])
        cells = cache.receiver_cells.setdefault(site, {})
        cell = cells.get(rclass)
        if cell is None:
            cell = cells[rclass] = [0]
        cell[0] += 1
        entry = icache.new_virtual_entry(nargs, method.a[pc], cells, site)
        entry[icache.V_CLASS0] = rclass
        entry[icache.V_METHOD0] = callee
        entry[icache.V_INDEX0] = callee.index
        entry[icache.V_VIEWS0] = callee.views
        entry[icache.V_PAD0] = icache.locals_pad(callee.num_locals, nargs)
        entry[icache.V_CELL0] = cell
        entry[icache.V_STATE] = 1
        cache.ic_deps.setdefault(callee.index, []).append(entry)
        method.ics[pc] = entry
        method.fops[pc] = icache.OP_IC_CALL_VIRTUAL
        cache.ic_sites += 1
        self.ic_misses += 1

    def _quicken_static(self, method, pc, callee, nargs) -> None:
        """First execution of a ``CALL_STATIC`` site: the target is a
        constant, so the entry just pins the callee's views and pad."""
        cache = self.code_cache
        entry = icache.new_static_entry(callee, nargs)
        cache.ic_deps.setdefault(callee.index, []).append(entry)
        method.ics[pc] = entry
        method.fops[pc] = icache.OP_IC_CALL_STATIC
        cache.ic_static_sites += 1

    def _ic_virtual_slow(self, entry, rclass, method, pc):
        """Both inline slots missed: search the overflow bindings, bind
        the new receiver class, or — once the site is megamorphic —
        resolve through the flat dispatch tables without growing the
        cache.  Returns ``(callee, callee_index, views, pad)``.

        Newly-bound callees are marked in ``seen`` here because the IC
        fast path skips the per-call check (a cache hit can only reach
        a method some earlier bind already marked).
        """
        self.ic_misses += 1
        rest = entry[icache.V_REST]
        if rest is not None:
            for r in rest:
                if r[0] == rclass:
                    r[5][0] += 1
                    return r[1], r[2], r[3], r[4]
        selector = entry[icache.V_SELECTOR]
        row = self.flat_vtables[rclass]
        callee_index = row[selector] if selector < len(row) else -1
        if callee_index < 0:
            raise self._missing_selector(rclass, selector, method, pc)
        cache = self.code_cache
        callee = cache.current(callee_index)
        cells = entry[icache.V_CELLS]
        cell = cells.get(rclass)
        if cell is None:
            cell = cells[rclass] = [0]
        cell[0] += 1
        if not self._seen[callee_index]:
            self._seen[callee_index] = True
            self.methods_executed += 1
        pad = icache.locals_pad(callee.num_locals, entry[icache.V_NARGS])
        state = entry[icache.V_STATE]
        if state > icache.POLY_LIMIT:
            return callee, callee_index, callee.views, pad
        self.ic_transitions += 1
        if state >= icache.POLY_LIMIT:
            entry[icache.V_STATE] = icache.MEGAMORPHIC
            cache.megamorphic_sites += 1
            return callee, callee_index, callee.views, pad
        entry[icache.V_STATE] = state + 1
        if entry[icache.V_CLASS1] < 0:
            entry[icache.V_CLASS1] = rclass
            entry[icache.V_METHOD1] = callee
            entry[icache.V_INDEX1] = callee_index
            entry[icache.V_VIEWS1] = callee.views
            entry[icache.V_PAD1] = pad
            entry[icache.V_CELL1] = cell
        else:
            if rest is None:
                rest = entry[icache.V_REST] = []
            rest.append([rclass, callee, callee_index, callee.views, pad, cell])
        cache.ic_deps.setdefault(callee_index, []).append(entry)
        return callee, callee_index, callee.views, pad

    # -- timer -------------------------------------------------------------------

    def _fire_timer(self) -> None:
        interval = self.config.timer_interval
        service = self.config.cost_model.timer_service_cost
        telemetry = self.telemetry
        while self.time >= self.next_tick:
            self.next_tick += interval
            self.ticks += 1
            self.time += service
            if telemetry is not None:
                telemetry.on_tick(self.time, self.ticks)
            if self.profiler is not None:
                self.profiler.handle_timer(self)
            if self.tick_hook is not None:
                self.tick_hook(self)

    def _take_yieldpoint(self, kind: int) -> None:
        self.time += self.config.cost_model.taken_yieldpoint_cost
        telemetry = self.telemetry
        event = None
        if telemetry is not None:
            # Emitted before the profiler runs so window/sample events
            # it triggers appear after their cause; the control-word
            # transition is filled in once the handler returns.
            event = telemetry.on_yieldpoint(self.time, kind, self.yieldpoint_flag)
        if self.profiler is not None:
            self.profiler.handle_yieldpoint(self, kind)
        else:
            self.yieldpoint_flag = YP_NONE
        if event is not None:
            event.flag_after = self.yieldpoint_flag

    # -- main loop ------------------------------------------------------------------

    def run(self):
        """Execute ``main()`` to completion; returns its value (or None)."""
        entry = self.program.entry_function()
        entry_method = self.code_cache.current(entry.index)
        if not self._seen[entry.index]:
            self._seen[entry.index] = True
            self.methods_executed += 1
        frame = Frame(entry_method, [0] * entry_method.num_locals, -1)
        self.frames.append(frame)
        if self.config.jit and self.jit_manager is None:
            from repro.vm.jit import JitManager

            self.jit_manager = JitManager(self)
            self.jit_manager.attach()
        telemetry = self.telemetry
        before = hostcounters.read(self) if telemetry is not None else None
        try:
            return self._loop()
        except VMError as error:
            if self.flight is not None:
                self.flight.on_fault(self, error)
            raise
        finally:
            self.finished = True
            if self.flight is not None:
                self.flight.on_run_end(self)
            if telemetry is not None:
                telemetry.on_host_counters(hostcounters.per_run(before, self))


def run_program(program: Program, config: VMConfig | None = None) -> Interpreter:
    """Run ``program`` to completion and return the finished interpreter."""
    vm = Interpreter(program, config)
    vm.run()
    return vm

# The dispatch loop itself is generated from the declarative opcode
# specs (see repro.vm.dispatchgen and docs/OPCODES.md).  The generated
# module can't import Frame/_FREED_LOCALS from here without a cycle, so
# we inject them, then install the loop as the Interpreter method.
from repro.vm import _dispatch as _dispatch  # noqa: E402

_dispatch.Frame = Frame
_dispatch._FREED_LOCALS = _FREED_LOCALS
Interpreter._loop = _dispatch._loop
