"""Opt-level-3 template JIT: compile one method to one Python function.

The compiler walks a method's *quickened* stream (``fops``: fused heads,
IC call opcodes), expands superinstruction heads back
into their raw components through :data:`repro.vm.fuse.FUSED_COMPONENTS`
(operands and costs taken from the raw parallel arrays at the interior
slots), and emits straight-line Python for each basic block with the
operand stack flattened into Python locals.  Every instruction, data
and control, is written by :func:`repro.vm.optemplates.emit` with the
:class:`_Compiler` as its context: the interpreter's own arms come from
the same templates, so the calling sequence, its order and its
bookkeeping are written once, and the compiler supplies only how a
body *leaves* — a jump to another block, a baked guard, a leaf expanded
or called, a direct call, a direct return, or an exit.  The generated
function has the shape::

    def _jit_<index>(vm, frame, time, steps, call_count, next_tick, ...):
        _stack = frame.stack
        _L = frame.locals
        l0, l1 = _L
        _b = frame.pc
        while True:
            if _b == 0:            # one arm per block leader
                ...
            elif _b == 7:
                ...

and returns ``(time, steps, call_count)`` — the interpreter's cached
counters — whenever it hands control back.  Handing back is the *only*
de-optimization mechanism, and it is always taken at an instruction
boundary with the counters holding exactly the charges of the
instructions that fully executed: the interpreter then replays from
``frame.pc`` and produces a bit-identical transcript (output, time,
steps, ticks, calls, DCG, telemetry, fault messages) to a never-JITted
run.  The exit taxonomy:

* **deopt** (``vm.jit_deopts``) — a segment's lumped charge would cross
  the tick boundary or the step limit, or an inlined call's leaf-time
  gate failed.  Mirrors fusion's tick-boundary de-quickening.
* **guard exit** (``vm.jit_guard_exits``) — a receiver class the call
  site has yet to bind (or one without the selector), a null receiver,
  a fault precondition (null field/array access, bad index, zero
  divisor, negative array length), or a leaf body bailed with
  ``LEAF_FAIL``.  The interpreter re-executes the instruction and
  raises (or takes its slow path) with exact counters.
* **call exit** (``vm.jit_call_exits``) — a call the interpreter has to
  make: the callee has neither a leaf template nor a body to enter
  directly, the frame budget or :data:`MAX_DIRECT_DEPTH` is exhausted,
  the site is an unquickened virtual, an observation hook is attached,
  or a directly entered callee handed back before it returned.
* **return exit** (``vm.jit_return_exits``) — an activation the
  interpreter entered reached a ``RETURN``/``RETURN_VAL``; the
  interpreter dispatches the return itself (return cost, epilogue
  yieldpoint, frame pop).

**Direct calls.**  A call site whose callee has a body of its own (no
leaf template, same hook signature, enterable at pc 0) runs the
``call`` templates' calling sequence in generated code — charge, pooled
``Frame`` on ``vm.frames`` — and calls the callee's ``fn`` with
``_d + 1`` (:meth:`_Compiler.enter`).  A body entered that way
executes its ``RETURN`` itself (:meth:`_Compiler.pop_frame`) and hands
``(time, steps, call_count, value, leaf calls, direct calls)`` back to
a caller that carries on in generated code.  The interpreter
can only resume the frame it entered, so a nested activation that must
hand back does not leave its frame for it: :func:`_hand_back` pops the
frame and parks its state in ``method.jit`` as a one-shot resume
record, the caller sees ``None`` and takes an ordinary call exit at
the call pc with the counters it had *before* the call, and the
interpreter re-executes that call — same charge, same frame push — and
enters the resume record, which turns the fresh frame into the parked
one.  Every frame on ``vm.frames`` is therefore one the interpreter
built, and each replayed entry pairs with the exit its activation
already counted.

Inline-cache guards follow pixie's ``elidable_promote`` discipline: the
receiver classes bound in an entry's inline slots at compile time are
baked into the generated code as integer constants and the entry's
receiver cells as preloaded objects; only the callee ``CompiledMethod``
is re-read through the (in-place refreshed) entry so adaptive
recompilation stays visible.  The guards are tested hottest class
first, by the cells' counts when the body was compiled.  Sites that
grow new guards after compile are picked up by the manager's
recompile-on-IC-growth policy.

**Polymorphic sites.**  A site with overflow bindings or gone
megamorphic (``entry[V_STATE] >= 3`` in the snapshot) follows its two
guards with a run-time tail: the ``ic_call_virtual`` template's miss
path — overflow search, flat-table lookup — which the interpreter's arm
runs too, ending in the leaf or direct calling sequence a guarded
target gets, with the miss counted at the commit point after the last
exit (:meth:`_Compiler.commit_point`).  It reads the live entry, so a
class bound after compile needs no new code; sites below that state
keep a plain guard exit and cost no extra source.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from repro.bytecode.opcodes import SPEC_BY_OP, STACK_EFFECT
from repro.vm import fuse
from repro.vm import ic as icmod
from repro.vm import optemplates
from repro.vm.interpreter import _FREED_LOCALS, Frame
from repro.vm.optemplates import Atom, Callee
from repro.vm.values import HeapArray, HeapObject

#: Bail out of compiling methods longer than this many instructions.
JIT_MAX_CODE = 2000

#: Direct calls nest one host frame per guest frame, and the host stack
#: is the shorter one (Python's default recursion limit is 1000, under
#: whatever the embedding program already used; ``max_frames`` is 4096).
#: A site this deep in a direct-call chain is an ordinary call exit; the
#: chain hands back and the interpreter starts a new one from there.
MAX_DIRECT_DEPTH = 128

#: Net stack effect per straight-line opcode, keyed by int, derived
#: from the declarative opcode specs (calls/branches/returns are
#: depth-tracked explicitly in ``_analyze`` and absent here).
_STACK_EFFECT: dict[int, int] = {
    int(op): effect for op, effect in STACK_EFFECT.items() if effect is not None
}

#: Exit counter on the VM -> the kind its sites carry in
#: :attr:`JitCode.exit_table`; a body's exit tail knows the kinds by
#: their position here.
_EXIT_KINDS = {
    "jit_deopts": "deopt",
    "jit_guard_exits": "guard",
    "jit_call_exits": "call",
    "jit_return_exits": "return",
}

#: Indentation by block depth (``w`` runs once per generated line).
_PADS = tuple("    " * depth for depth in range(64))

#: Heap classes generated code instantiates, baked in by name.
_HEAP_CLASSES = {"HeapObject": HeapObject, "HeapArray": HeapArray}

#: The VM and the direct-call frame machinery, as a body names them.
_FRAME_NAMES = {"vm": "vm", "frame": "_f", "pool": "_pool", "frames": "_frames"}


def jit_sig(inline_leaves: bool) -> int:
    """Encode the observation-hook configuration a body was compiled
    under; the interpreter refuses to enter a body whose signature does
    not match the current run's hooks."""
    return 1 if inline_leaves else 0


def vm_jit_sig(vm) -> int:
    """The signature the running interpreter requires (see
    :func:`jit_sig`): leaves inline only when no observation hook could
    land inside a call."""
    return jit_sig(vm.call_observer is None and vm.telemetry is None)


def ic_signature(method) -> tuple:
    """Snapshot of the method's quickened call sites (pc, IC state, and
    the leaf template of each callee in the cache's inline slots).

    The manager recompiles when this changes: a newly quickened site, a
    second receiver class (one more guard worth baking) or a third (the
    site gets its polymorphic tail).  States from 3 up read alike — the
    tail looks overflow and megamorphic receivers up at run time, so
    further growth needs no new code.  A callee that
    ``CodeCache.install`` replaced carries a new leaf template, and a
    pure one baked into this body would fail its identity guard at
    every call; the template's ``id`` cannot be reused while the body
    that baked it is alive."""
    ics = method.ics
    if ics is None:
        return ()
    sig = []
    for pc, entry in enumerate(ics):
        if entry is None:
            continue
        if icmod.entry_is_virtual(entry):
            sig.append((
                pc,
                min(entry[icmod.V_STATE], 3),
                _leaf_id(entry[icmod.V_METHOD0]),
                _leaf_id(entry[icmod.V_METHOD1]),
            ))
        else:
            sig.append((pc, -1, _leaf_id(entry[icmod.S_METHOD])))
    return tuple(sig)


def _leaf_id(method) -> int:
    return 0 if method is None else id(method.leaf)


@dataclass(slots=True, eq=False)
class JitCode:
    """One compiled body, installed on ``CompiledMethod.jit``.

    ``source`` is None on the records that stand where a body would:
    the JIT manager's counting trampoline (repro.vm.jit.manager)
    until the method proves hot, and the one-shot resume record of
    :func:`_hand_back`.

    ``direct`` is ``fn`` when a compiled caller may enter the body
    itself (a real body for unhooked runs, enterable at pc 0, of a
    method the interpreter would call through a frame), else None;
    ``pad`` is the zero fill from the method's parameters to its
    locals.

    ``exit_table`` names the body's exit sites as ``(pc, kind)`` and
    ``exit_counts`` holds, index for index, how often each was taken
    (the shared exit tail bumps it)."""

    fn: object
    entry0: bool
    entries: object
    sig: int
    ic_sig: object = None
    source: str | None = None
    fused_expanded: int = 0
    inline_sites: int = 0
    exit_sites: int = 0
    direct_sites: int = 0
    poly_sites: int = 0
    direct: object = None
    pad: tuple = ()
    exit_table: tuple = ()
    exit_counts: object = ()


def _hand_back(vm, frame, time, steps, call_count) -> None:
    """Exit of a directly entered activation: give ``frame`` to the
    interpreter by way of the call that created it.

    Pops the frame and leaves a resume record where the method's body
    was.  The caller, seeing None, exits at its call pc with its
    pre-call counters; the interpreter re-executes the call, pushes a
    frame of its own and enters ``method.jit`` — this record — which
    restores the body, copies the parked locals, operand stack and pc
    into the interpreter's frame and returns the counters of the
    hand-back.  Frames of one method hand back innermost first and are
    replayed outermost first, so the records stack up in ``method.jit``
    through ``body`` and unstack in order."""
    method = frame.method
    body = method.jit
    vm.frames.pop()
    vm.jit_unwinds += 1

    def resume(vm, rebuilt, _time, _steps, _call_count, _next_tick):
        method.jit = body
        rebuilt.locals[:] = frame.locals
        rebuilt.stack.extend(frame.stack)
        rebuilt.pc = frame.pc
        return (time, steps, call_count)

    method.jit = JitCode(resume, True, (), body.sig)


class _Bail(Exception):
    """Internal: this method cannot be template-compiled."""


class _InlineLeaf(optemplates.EmitContext):
    """Emit context for a pure leaf body expanded at its call site.

    Callee parameters are the caller's (already pinned) argument atoms
    and extra callee locals start at 0, like a fresh frame; statements
    go to the caller's arm.  A fault precondition — null field access,
    division by zero — exits at the call pc with the caller's stack and
    nothing to roll back, so the interpreter replays the call
    generically and faults with a real frame, exactly as the closure's
    LEAF_FAIL path does."""

    def __init__(self, compiler, pc, vstack, args, num_locals):
        self.compiler = compiler
        self.w = compiler.w
        self.new_tmp = compiler.new_tmp
        self.pc = pc
        self.caller_vstack = vstack
        self.locals = list(args)
        self.locals += [optemplates.lit_atom(0)] * (num_locals - len(args))

    def load(self, slot):
        return self.locals[slot]

    def store(self, slot, value, vstack):
        # Simulation state only; pin so a reloaded slot never
        # re-evaluates a compound value.
        self.locals[slot] = self.pin(value)

    def fault(self, cond, vstack, operands):
        self.compiler._exit(self.pc, self.caller_vstack, "jit_guard_exits", cond=cond)


class _Compiler(optemplates.EmitContext):
    """One method's compilation; also the emit context of its own body:
    locals are ``lN`` and a fault precondition is a guard exit at the
    faulting pc with the op's operands back on the stack."""

    def __init__(self, method, program, cache, config, inline_leaves):
        self.method = method
        self.program = program
        self.cache = cache
        self.config = config
        self.inline_leaves = inline_leaves

        cost_model = config.cost_model
        entry_extra = (
            0
            if config.overloaded_entry_check
            else cost_model.dedicated_entry_check_cost
        )
        self.call_static_cost = cost_model.call_static_cost + entry_extra
        self.call_virtual_cost = cost_model.call_virtual_cost + entry_extra
        self.return_cost = cost_model.return_cost
        self._sel_rv = program.selector_return_shapes()
        self.max_steps = config.max_steps
        self.max_frames = config.max_frames

        self.lines: list[str] = []
        self.indent = 2
        self.tmp = 0
        self.baked: dict[str, object] = {}
        self.uses: set[str] = set()
        self.fused_expanded = 0
        self.inline_sites = 0
        self.exit_sites = 0
        self.direct_sites = 0
        self.poly_sites = 0
        #: (pc, exit kind) -> index into the body's exit counts.
        self.exit_index: dict[tuple, int] = {}
        self.exit_counts: list[int] = []
        self.has_calls = False
        self.zero_progress: set[int] = set()
        self.cur_leader = 0
        self.arm_progress = False
        #: The op being templated: its pc, (pc, giveback) for ``fault``,
        #: and its inline-cache entry.
        self.pc = 0
        self._site: tuple = (0, None)
        self._entry = None
        #: A call or return sequence in progress: the op's own dispatch
        #: charge and all it has not charged yet, the stack an exit hands
        #: back, the compile-time callee of the case being emitted, and
        #: its bookkeeping.
        self._head = self._due = None
        self._live: list = []
        self._args: list = []
        self._tres = None
        self._direct: list = []
        self._known = None
        self._commits: dict = {}
        self._slow = None
        self._ended = False

    # -- small emission helpers -------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append(_PADS[self.indent] + line)

    def new_tmp(self) -> str:
        name = f"t{self.tmp}"
        self.tmp += 1
        return name

    def guard(self, modes, vstack, operands) -> None:
        pc, giveback = self._site
        cond = " or ".join([test for _, test, _ in modes])
        self._exit(pc, vstack + list(operands), "jit_guard_exits", giveback, cond)

    def name(self, what: str) -> str:
        if what in _FRAME_NAMES:
            return _FRAME_NAMES[what]
        if what in _HEAP_CLASSES:
            return self._bake(what, _HEAP_CLASSES[what])
        if what == "Frame":
            return self._bake("_Frame", Frame)
        if what == "methods":
            return self._bake("_m", self.cache.built)
        if what == "current":
            return self._bake("_cur", self.cache.current)
        self.uses.add(what)
        return "_" + what

    def current(self, index) -> None:
        if not isinstance(index, int):
            super().current(index)
            return
        # A constant target is built now, so the body never meets it
        # unbuilt (an install replaces a version, it never unbuilds one).
        self.cache.current(index)
        self.w(f"callee = {self.name('methods')}[{index}]")

    def charge(self, expr: str) -> None:
        self.w(f"time += {expr}")

    def _bake(self, name: str, value) -> str:
        self.baked[name] = value
        return name

    # -- exits ------------------------------------------------------------------

    def _exit(self, pc: int, vstack, counter: str, giveback=None, cond=None) -> None:
        """Hand control back to the interpreter at instruction ``pc``
        with the counters charged exactly through the instructions that
        completed (``giveback`` refunds a pre-charged segment suffix).

        The site names its live operand stack and its index in the
        body's exit table, which holds its resume pc and kind, and
        leaves the arm loop; counting the exit — against the site and in
        the VM's ``counter`` — and materializing the frame is the same
        for every exit of a body and is emitted once, after the loop
        (:meth:`_exit_tail`).  A ``cond`` makes the exit conditional.
        (Exits are most of what a body is made of, so their lines are
        written here directly.)"""
        pad, lines = _PADS[self.indent], self.lines
        if cond is not None:
            lines.append(f"{pad}if {cond}:")
            pad += "    "
        if giveback is not None:
            gcost, gsteps = giveback
            if gcost:
                lines.append(f"{pad}time -= {gcost}")
            lines.append(f"{pad}steps -= {gsteps}")
        exprs = "".join([f"{a.expr}, " for a in vstack])
        index = self.exit_index.setdefault((pc, _EXIT_KINDS[counter]), len(self.exit_index))
        lines.append(f"{pad}_xs, _xk = ({exprs}), {index}")
        lines.append(f"{pad}break")

    def _exit_tail(self) -> list[str]:
        """What every exit of the body runs after leaving the arm loop:
        count the exit against its site and in the VM's counter for the
        site's kind, write the guest locals back, set the resume pc,
        push the live operand stack, flush the call counters, and
        return the interpreter's counters — through :func:`_hand_back`
        when the activation was entered directly."""
        kinds = list(_EXIT_KINDS.values())
        self.exit_counts = [0] * len(self.exit_index)
        self._bake("_xc", self.exit_counts)
        self._bake("_xt", tuple(kinds.index(kind) for _pc, kind in self.exit_index))
        self._bake("_xpc", tuple(pc for pc, _kind in self.exit_index))
        tail = ["    _xc[_xk] += 1", "    _xn = _xt[_xk]"]
        for number, counter in enumerate(_EXIT_KINDS):
            tail.append(f"    {'elif' if number else 'if'} _xn == {number}:")
            tail.append(f"        vm.{counter} += 1")
        n = self.method.num_locals
        if n:
            names = ", ".join(f"l{i}" for i in range(n))
            tail.append(f"    _L[:] = ({names},)")
        tail.append("    frame.pc = _xpc[_xk]")
        tail.append("    _stack.extend(_xs)")
        if self.has_calls:
            tail.append("    vm.jit_leaf_calls += _leaf")
        if "direct" in self.uses:
            tail.append("    vm.jit_direct_calls += _dc")
        if self.inline_leaves:
            tail.append("    if _d:")
            tail.append("        return _hb(vm, frame, time, steps, call_count)")
        tail.append("    return (time, steps, call_count)")
        return tail

    def _leave(self, cond: str, counter: str) -> None:
        """Exit at the call or return being emitted when ``cond`` holds."""
        self._exit(self.pc, self._live, counter, cond=cond)

    def _goto(self, target: int, vstack) -> None:
        """Jump to another arm, materializing the symbolic stack into
        the canonical positional slots the target arm expects."""
        depth = self.depth.get(target)
        if depth is None or depth != len(vstack):  # pragma: no cover - depth pass
            raise _Bail("inconsistent depth at join")
        if depth and any(a.expr != f"s{i}" for i, a in enumerate(vstack)):
            slots = ", ".join(f"s{i}" for i in range(depth))
            exprs = ", ".join(a.expr for a in vstack)
            self.w(f"{slots} = ({exprs},)" if depth > 1 else f"{slots} = {exprs}")
        self.w(f"_b = {target}")
        self.w("continue")

    # -- analysis ---------------------------------------------------------------

    def _decode(self) -> None:
        """Expand the quickened stream to per-pc records ``(op, a, b,
        cost, ic_entry, spec)``, an IC opcode kept with its call's spec
        row; fused heads go through
        :data:`fuse.FUSED_COMPONENTS` (template reuse — the per-raw-op
        templates below serve fused and unfused streams alike)."""
        m = self.method
        fops, ops, a, b, costs = m.fops, m.ops, m.a, m.b, m.costs
        n = len(ops)
        if n > JIT_MAX_CODE:
            raise _Bail("method too long")
        recs: list = [None] * n
        pc = 0
        while pc < n:
            f = fops[pc]
            if f >= fuse.FUSE_BASE:
                comps = fuse.FUSED_COMPONENTS.get(f)
                if comps is None:
                    raise _Bail(f"unknown fused id {f}")
                for off, comp in enumerate(comps):
                    p = pc + off
                    if comp != ops[p]:
                        raise _Bail("fused components drifted from raw stream")
                    recs[p] = (comp, a[p], b[p], costs[p], None, SPEC_BY_OP[comp])
                self.fused_expanded += 1
                pc += len(comps)
                continue
            if f >= icmod.IC_BASE:
                entry, spec = m.ics[pc], optemplates.spec_and_kind(f)[0]
            else:
                entry, spec = None, SPEC_BY_OP[f]
            recs[pc] = (f, a[pc], b[pc], costs[pc], entry, spec)
            pc += 1
        self.recs = recs

    def _call_shape(self, spec, a, b, entry) -> tuple:
        """A call site's argument count and whether it leaves a result;
        ``None`` for a virtual selector of no single return shape, a site
        that always exits, so its arm ends there."""
        if spec.arg == "virtual":
            shapes = self._sel_rv
            return b + 1, shapes[a] if a < len(shapes) else None
        index = a if entry is None else entry[icmod.S_INDEX]
        return b, self.program.functions[index].returns_value

    def _analyze(self) -> None:
        """Reachability + stack-depth pass; finds block leaders and the
        backward-jump targets eligible for OSR entry (depth 0)."""
        recs = self.recs
        depth: dict[int, int] = {0: 0}
        work = [0]
        jump_targets: set[int] = set()
        osr: set[int] = set()
        while work:
            pc = work.pop()
            d = depth[pc]
            rec = recs[pc]
            if rec is None:  # pragma: no cover - fused interior unreachable
                raise _Bail("jump into fused interior")
            op, a, b, _cost, entry, spec = rec
            succs: list[tuple[int, int]] = []
            if spec.kind == "jump":
                jump_targets.add(a)
                succs.append((a, d))
                if a <= pc:
                    osr.add(a)
            elif spec.kind == "branch":
                jump_targets.add(a)
                succs.append((a, d - 1))
                succs.append((pc + 1, d - 1))
            elif spec.kind == "call":
                nargs, rv = self._call_shape(spec, a, b, entry)
                if rv is not None:
                    succs.append((pc + 1, d - nargs + (1 if rv else 0)))
            elif spec.kind != "return":
                succs.append((pc + 1, d + _STACK_EFFECT[op]))
            for target, nd in succs:
                if nd < 0 or target >= len(recs):
                    raise _Bail("bad stack depth")
                seen = depth.get(target)
                if seen is None:
                    depth[target] = nd
                    work.append(target)
                elif seen != nd:
                    raise _Bail("inconsistent stack depth at join")
        self.depth = depth
        self.leaders = {0} | {t for t in jump_targets if t in depth}
        self.osr_targets = {t for t in osr if depth.get(t) == 0}

    # -- per-arm emission -------------------------------------------------------

    def _emit_arm(self, leader: int) -> None:
        self.cur_leader = leader
        self.arm_progress = False
        vstack = [
            Atom(f"s{i}", simple=True) for i in range(self.depth[leader])
        ]
        seg: list[int] = []
        pc = leader
        while True:
            if pc != leader and pc in self.leaders:
                self._flush(seg, vstack)
                self._goto(pc, vstack)
                return
            op, a, b, cost, entry, spec = self.recs[pc]
            kind = spec.kind
            if kind in ("call", "return"):
                # Charged by their own sequence, not by a segment.
                self._flush(seg, vstack)
                self.pc, self._site, self._entry = pc, (pc, None), entry
                self._ended = kind == "return"
                optemplates.emit(self, op, a, b, vstack)
                if self._ended:
                    if not self.arm_progress:
                        self.zero_progress.add(leader)
                    return
                pc += 1
                continue
            seg.append(pc)
            if kind in ("jump", "branch") or spec.dyn_cost is not None:
                # Control, or a run-time charge the next lumped tick
                # guard must see, ends the segment.
                self._flush(seg, vstack)
                if kind == "jump":
                    return
            pc += 1

    def _flush(self, seg: list[int], vstack) -> None:
        """Emit one segment: a lumped tick/step guard (de-opt point at
        the segment's first pc, nothing charged yet), the lumped charge,
        then the per-op template statements."""
        if not seg:
            return
        recs = self.recs
        total_cost = sum(recs[p][3] for p in seg)
        total_steps = len(seg)
        self._exit(
            seg[0], vstack, "jit_deopts",
            cond=f"time + {total_cost} >= next_tick or "
            f"steps + {total_steps} >= {self.max_steps}",
        )
        if total_cost:
            self.w(f"time += {total_cost}")
        self.w(f"steps += {total_steps}")
        self.arm_progress = True
        suffix_cost = total_cost
        suffix_steps = total_steps
        for p in seg:
            op, a, b, cost, _entry, _spec = recs[p]
            # A fault exit refunds the pre-charged segment suffix.
            self.pc, self._site = p, (p, (suffix_cost, suffix_steps))
            optemplates.emit(self, op, a, b, vstack)
            suffix_cost -= cost
            suffix_steps -= 1
        del seg[:]

    # -- how a body leaves: the control templates' hooks ------------------------

    def target(self, a):
        return a

    def goto(self, target, vstack) -> None:
        self._goto(target, vstack)

    def next(self, vstack) -> None:
        pass

    def jit_entry(self, target) -> None:
        pass

    def step_limit(self, when=None) -> None:
        # Only a call is not in a segment, whose lumped guard covers it.
        if self._head is not None:
            self._leave(f"steps + 1 >= {self.max_steps}", "jit_deopts")

    def charge_fixed(self, key: str, calls: int = 0) -> None:
        # Once per resolved case, each of which runs its own sequence.
        self._due = self._head + getattr(self, key)

    def commit(self, *lines) -> None:
        self._commits[lines] = None

    def commit_point(self) -> None:
        """Where a call's bookkeeping lands: after its last exit, so a
        call the interpreter replays is counted once, by it.  A line
        several resolved cases ask for is written once."""
        for lines in self._commits:
            for line in lines:
                self.w(line)
        self._commits = {}

    def returning(self, value, vstack):
        """A body entered directly returns to its caller itself, after
        the dispatch head's tick test (the interpreter checks no step
        limit at a return); every other activation exits and the
        interpreter returns."""
        pc, cost = self.pc, self.recs[self.pc][3]
        self.exit_sites += 1
        self._live = vstack + ([value] if value is not None else [])
        if self.inline_leaves:
            self.w("if _d:")
            with self.indented():
                head = f"time + {cost}" if cost else "time"
                self._leave(f"{head} >= next_tick", "jit_deopts")
                self._head = cost
                yield
                self._head = None
        self._exit(pc, self._live, "jit_return_exits")

    def pop_frame(self, value) -> None:
        counts = "_leaf, _dc" if self.has_calls else "0, 0"
        result = "None" if value is None else value.expr
        self.w(f"return (time + {self._due}, steps + 1, call_count, {result}, {counts})")

    def calling(self, spec, a, b, vstack):
        """Run the site in generated code unless a hook is attached or
        the site is an unquickened or unknown-shape virtual: then it is a
        call exit."""
        pc, entry = self.pc, self._entry
        nargs, rv = self._call_shape(spec, a, b, entry)
        if not self.inline_leaves or rv is None or (spec.arg == "virtual" and entry is None):
            self.exit_sites += 1
            self._exit(pc, vstack, "jit_call_exits")
            self._ended = True
            return
        self.uses.add("room")
        self._bake("_LF", icmod.LEAF_FAIL)
        # Pin compound argument atoms up front: every guard branch must
        # see the same caller stack.
        for i in range(len(vstack) - nargs, len(vstack)):
            vstack[i] = self.pin(vstack[i])
        self._args = vstack[len(vstack) - nargs:]
        self._tres = self.new_tmp() if rv else None
        self._live, self._head, self._direct = vstack, self.recs[pc][3], []
        ename = None if entry is None else self._bake(f"_e{pc}", entry)
        yield optemplates.Site(ename, nargs)
        self._head = None
        # Counted per site: a two-guard site with one target of each
        # kind is both an inlined and a direct call site.
        self.direct_sites += any(self._direct)
        self.inline_sites += not all(self._direct)
        if nargs:
            del vstack[len(vstack) - nargs:]
        if rv:
            vstack.append(Atom(self._tres, simple=True))
        self.arm_progress = True

    def receiver(self, site, vstack) -> str:
        return vstack[-site.nargs].expr

    def guards(self, site):
        """The site's bound inline slots as baked guards, hottest class
        first."""
        return [(klass, slot - 1) for klass, slot, _cell in icmod.guard_classes(self._entry)]

    def bind(self, site, callee):
        entry, pc = self._entry, self.pc
        if callee.slot is not None:
            self._known = entry[callee.slot]
            cell = callee.cell and self._bake(
                f"_c{callee.slot}_{pc}", entry[callee.slot + icmod.V_CELL0 - icmod.V_METHOD0]
            )
            self.w(f"callee = {callee.method}")
            return Callee("callee", callee.index, cell=cell, hit=bool(cell))
        if site.entry is None:  # a raw static site: the target is constant
            self._known = self.cache.built[callee.index]
            return Callee("callee", callee.index)
        # Resolved at run time (the polymorphic tail): an overflow row,
        # or the names a flat-table lookup has bound already.
        self._known = None
        names = ("callee", "callee_index", "cell")
        exprs = (callee.method, callee.index, callee.cell)
        if exprs != names:
            self.w(f"{', '.join(names)} = {', '.join(exprs)}")
        return Callee(*names[:2], cell="cell", hit=True)

    def resolves_miss(self, site) -> bool:
        """A site with overflow rows or gone megamorphic keeps its misses
        in generated code; below that a miss is a guard exit."""
        if self._entry[icmod.V_STATE] < 3:
            self._exit(self.pc, self._live, "jit_guard_exits")
            return False
        self.poly_sites += 1
        self.commit("vm.jit_poly_calls += 1")
        return True

    @contextmanager
    def bind_slow(self, site, rclass, cond):
        # Binding changes IC state and belongs to the interpreter, as
        # does raising a missing selector: one exit, once the flat table
        # has been read, serves both.
        self._slow = cond
        yield

    def missing_selector(self, test, rclass, selector) -> None:
        self._leave(f"{self._slow} or {test}", "jit_guard_exits")

    def leaf(self, site, callee):
        """A leaf target runs here: a pure body expanded into the caller
        under an identity guard on the baked leaf tuple (a replaced
        callee publishes a fresh one, so the site exits until the caller
        is recompiled), any other through its closure.  A target with no
        leaf template is entered directly; one resolved at run time is
        tested for a leaf then."""
        known = self._known
        if known is None:
            self.w(f"_lf = {callee.method}.leaf")
            self.w("if _lf is not None:")
            with self.indented():
                self._leaf_closure("not _room")
            self.w("else:")
            return self.indented()  # the direct call goes in the ``else``
        leaf = known.leaf
        self._direct.append(leaf is None)
        if leaf is None:
            return optemplates.GO_ON
        if optemplates.PURE_LEAF_OPS.issuperset(leaf[icmod.L_OPS]):
            lname = self._bake(f"_lf{len(self._direct)}_{self.pc}", leaf)
            self._leave(f"{callee.method}.leaf is not {lname} or not _room", "jit_call_exits")
            due = self._due + leaf[icmod.L_COST]
            self._leave(f"time + {due} >= next_tick", "jit_deopts")
            ctx = _InlineLeaf(self, self.pc, self._live, self._args, leaf[icmod.L_NUM_LOCALS])
            ts: list[Atom] = []
            for lop, la in zip(leaf[icmod.L_OPS], leaf[icmod.L_A]):
                optemplates.emit(ctx, lop, la, None, ts)
            self.w(f"time += {due}")
            self.w(f"steps += {1 + leaf[icmod.L_STEPS]}")
            if self._tres:
                self.w(f"{self._tres} = {ts.pop().expr}")
            self.w("call_count += 1")
            self.w("_leaf += 1")
        else:
            self.w(f"_lf = {callee.method}.leaf")
            self._leaf_closure("_lf is None or not _room")
        return optemplates.RAN

    def _leaf_closure(self, unfit: str) -> None:
        """Call the leaf closure in ``_lf`` unless ``unfit`` (a call
        exit), a tick falls inside the call (deopt) or the closure would
        fault (guard exit; it has changed nothing)."""
        due, t = self._due, self._tres or self.new_tmp()
        arglist = "".join(f"{x.expr}, " for x in self._args)
        self._leave(unfit, "jit_call_exits")
        self._leave(f"time + {due} + _lf[{icmod.L_COST}] >= next_tick", "jit_deopts")
        self.w(f"{t} = _lf[{icmod.L_FN}](({arglist}), 0)")
        self._leave(f"{t} is _LF", "jit_guard_exits")
        self.w(f"time += {due} + _lf[{icmod.L_COST}]")
        self.w(f"steps += 1 + _lf[{icmod.L_STEPS}]")
        self.w("call_count += 1")
        self.w("_leaf += 1")

    def room(self, spec) -> None:
        pass  # the entry test below reads ``_go``

    def new_locals(self, site, callee) -> str:
        """Every test before the first charge, so each is an exact replay
        point; past them the charged time is below the tick, which is
        what entering a body requires."""
        self.uses.add("direct")
        self.w(f"_j = {callee.method}.jit")
        self._leave("_j is None or _j.direct is None or not _go", "jit_call_exits")
        self._leave(f"time + {self._due} >= next_tick", "jit_deopts")
        return "[" + "".join(f"{x.expr}, " for x in self._args) + "*_j.pad]"

    def enter(self, site, callee) -> None:
        """Call the callee's body with this caller's counters; a callee
        that hands back (None, see :func:`_hand_back`) leaves an
        ordinary call exit here.  The frame is popped on the side that
        pushed it."""
        self.w(
            f"_r = _j.direct(vm, _f, time + {self._due}, steps + 1, call_count + 1,"
            " next_tick, _d + 1)"
        )
        self._leave("_r is None", "jit_call_exits")
        self.w("_frames.pop()")
        self.w(f"_f.locals = {self._bake('_FL', _FREED_LOCALS)}")
        self.w("_pool.append(_f)")
        self.w(f"time, steps, call_count, {self._tres or '_'}, _nl, _nd = _r")
        self.w("_leaf += _nl")
        self.w("_dc += _nd + 1")

    # -- assembly ---------------------------------------------------------------

    def compile(self) -> JitCode | None:
        self._decode()
        self._analyze()
        method = self.method
        # Decide up front whether any exit must flush the call
        # counters: a loop can run an inlined call and later leave
        # through an exit emitted *before* that call site.
        self.has_calls = self.inline_leaves and any(
            rec is not None and rec[5].kind == "call"
            for rec in self.recs
        )
        for leader in sorted(self.leaders):
            prefix = "if" if leader == min(self.leaders) else "elif"
            self.w(f"{prefix} _b == {leader}:")
            self.indent += 1
            self._emit_arm(leader)
            self.indent -= 1
        self.w("else:")
        self.w("    raise RuntimeError('jit: no arm for pc %d' % _b)")

        entry0 = 0 not in self.zero_progress
        entries = frozenset(self.osr_targets - self.zero_progress)
        if not entry0 and not entries:
            return None

        preamble = ["    _stack = frame.stack"]
        n = method.num_locals
        if n:
            preamble.append("    _L = frame.locals")
            names = ", ".join(f"l{i}" for i in range(n))
            preamble.append(f"    {names}{',' if n == 1 else ''} = _L")
        if "seen" in self.uses:
            preamble.append("    _seen = vm._seen")
        if "out" in self.uses:
            preamble.append("    _out = vm.output")
        if "vt" in self.uses:
            preamble.append("    _vt = vm.vtables")
        if "fv" in self.uses:
            preamble.append("    _fv = vm.flat_vtables")
        if "fd" in self.uses:
            preamble.append("    _fd = vm.class_field_defaults")
        if "room" in self.uses:
            preamble.append(f"    _room = len(vm.frames) < {self.max_frames}")
        if "direct" in self.uses:
            preamble.append("    _frames = vm.frames")
            preamble.append("    _pool = vm._frame_pool")
            preamble.append(f"    _go = _room and _d < {MAX_DIRECT_DEPTH}")
        if self.has_calls:
            preamble.append("    _leaf = _dc = 0")
        preamble.append("    _b = frame.pc")
        preamble.append("    while True:")

        fname = f"_jit_{method.index}"
        params = "vm, frame, time, steps, call_count, next_tick"
        if self.inline_leaves:
            # Direct-entry depth; the interpreter's six-argument call
            # leaves it 0.
            params += ", _d=0"
            self._bake("_hb", _hand_back)
        tail = self._exit_tail()
        baked_names = sorted(self.baked)
        if baked_names:
            params += ", " + ", ".join(f"{b}={b}" for b in baked_names)
        source = "\n".join(
            [f"def {fname}({params}):", *preamble, *self.lines, *tail, ""]
        )
        namespace = dict(self.baked)
        namespace["__builtins__"] = {
            "len": len, "abs": abs, "isinstance": isinstance, "int": int,
            "RuntimeError": RuntimeError,
        }
        exec(compile(source, f"<jit:{method.index}>", "exec"), namespace)
        fn = namespace[fname]
        return JitCode(
            fn=fn,
            entry0=entry0,
            entries=entries,
            sig=jit_sig(self.inline_leaves),
            ic_sig=ic_signature(method),
            source=source,
            fused_expanded=self.fused_expanded,
            inline_sites=self.inline_sites,
            exit_sites=self.exit_sites,
            direct_sites=self.direct_sites,
            poly_sites=self.poly_sites,
            exit_table=tuple(self.exit_index),
            exit_counts=self.exit_counts,
            direct=(
                fn
                if entry0 and self.inline_leaves and method.leaf is None
                else None
            ),
            pad=icmod.locals_pad(method.num_locals, method.function.num_params),
        )


def compile_method(
    method, program, cache, config, *, inline_leaves: bool, emit_paths: bool = False
) -> JitCode | None:
    """Template-compile one method; None when ineligible (too long,
    irregular stack shape, or no entry point would make progress).
    No body carries path hooks: ``emit_paths`` stays only so that
    callers passing False keep working, and True raises ValueError."""
    if emit_paths:
        raise ValueError("path hooks are not emitted: emit_paths must be False")
    try:
        return _Compiler(method, program, cache, config, inline_leaves).compile()
    except _Bail:
        return None


def exit_sites(vm) -> list[tuple]:
    """Where this VM's generated code left the tier: ``(method name,
    pc, kind, count)`` per exit site taken at least once, most taken
    first, summed over every body the VM compiled for the method."""
    totals: dict[tuple, int] = {}
    for method, code in vm.jit_bodies:
        name = method.function.qualified_name
        for (pc, kind), count in zip(code.exit_table, code.exit_counts):
            if count:
                key = (name, pc, kind)
                totals[key] = totals.get(key, 0) + count
    return sorted(
        ((*site, count) for site, count in totals.items()),
        key=lambda row: (-row[3], row),
    )


def compile_into(vm, method) -> bool:
    """Compile ``method`` for the running interpreter's hook
    configuration and install the body on the method; bumps
    ``vm.jit_compiles`` on success, keeps the body on ``vm.jit_bodies``
    (its exit counts outlive a recompile) and adds the host seconds
    spent, successful or not, to ``vm.jit_compile_s``."""
    sig = vm_jit_sig(vm)
    started = perf_counter()
    code = compile_method(
        method,
        vm.program,
        vm.code_cache,
        vm.config,
        inline_leaves=sig & 1 != 0,
    )
    vm.jit_compile_s += perf_counter() - started
    if code is None:
        return False
    method.jit = code
    vm.jit_compiles += 1
    vm.jit_bodies.append((method, code))
    return True
