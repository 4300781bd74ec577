"""Opt-level-3 template JIT: compile one method to one Python function.

The compiler walks a method's *quickened* stream (``fops``: fused heads,
IC call opcodes), expands superinstruction heads back
into their raw components through :data:`repro.vm.fuse.FUSED_COMPONENTS`
(one template per component, operands and costs taken from the raw
parallel arrays at the interior slots), and emits straight-line Python
for each basic block with the operand stack flattened into Python
locals.  The generated function has the shape::

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
  yieldpoint, path record, frame pop).

**Direct calls.**  A call site whose callee has a body of its own (no
leaf template, same hook signature, enterable at pc 0) performs the
interpreter's calling sequence in generated code — charge, pooled
``Frame`` on ``vm.frames`` — and calls the callee's ``fn`` with
``_d + 1``.  A body entered that way executes its ``RETURN`` itself and
hands ``(time, steps, call_count, value, leaf calls, direct calls)``
back to a caller that carries on in generated code.  The interpreter
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
guards with a run-time tail, :meth:`_Compiler._emit_poly_tail`: the
interpreter's inline-cache miss arm — overflow search, flat-table
lookup — ending in the same leaf or direct calling sequence a guarded
target gets, with the miss counted after the last exit.  It reads the
live entry, so a class bound after compile needs no new code; sites
below that state keep a plain guard exit and cost no extra source.
"""

from __future__ import annotations

from time import perf_counter

from repro.bytecode.opcodes import SPEC_BY_OP, STACK_EFFECT, Op
from repro.vm import fuse
from repro.vm import ic as icmod
from repro.vm import optemplates
from repro.vm.interpreter import _FREED_LOCALS, Frame
from repro.vm.optemplates import Atom
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

# Control opcodes: the compiler owns block structure, call sites and
# exits; every other opcode goes through repro.vm.optemplates.
_OP_JUMP = int(Op.JUMP)
_OP_JIF = int(Op.JUMP_IF_FALSE)
_OP_JIT = int(Op.JUMP_IF_TRUE)
_OP_CALL_STATIC = int(Op.CALL_STATIC)
_OP_CALL_VIRTUAL = int(Op.CALL_VIRTUAL)
_OP_RETURN = int(Op.RETURN)
_OP_RETURN_VAL = int(Op.RETURN_VAL)

#: Exit counter on the VM -> the kind its sites carry in
#: :attr:`JitCode.exit_table`; a body's exit tail knows the kinds by
#: their position here.
_EXIT_KINDS = {
    "jit_deopts": "deopt",
    "jit_guard_exits": "guard",
    "jit_call_exits": "call",
    "jit_return_exits": "return",
}

#: Heap classes generated code instantiates, baked in by name.
_HEAP_CLASSES = {"HeapObject": HeapObject, "HeapArray": HeapArray}


def jit_sig(inline_leaves: bool, emit_paths: bool) -> int:
    """Encode the observation-hook configuration a body was compiled
    under; the interpreter refuses to enter a body whose signature does
    not match the current run's hooks."""
    return (1 if inline_leaves else 0) | (2 if emit_paths else 0)


def vm_jit_sig(vm) -> int:
    """The signature the running interpreter requires (see
    :func:`jit_sig`): leaves inline only when no observation hook could
    land inside a call, path hooks are emitted iff a tracker is
    attached."""
    inline = (
        vm.call_observer is None
        and vm.telemetry is None
        and vm.path_tracker is None
    )
    return jit_sig(inline, vm.path_tracker is not None)


def ic_signature(method) -> tuple:
    """Snapshot of the method's quickened call sites (pc, IC state).

    The manager recompiles when this changes: a newly quickened site, a
    second receiver class (one more guard worth baking) or a third (the
    site gets its polymorphic tail).  States from 3 up read alike — the
    tail looks overflow and megamorphic receivers up at run time, so
    further growth needs no new code."""
    ics = method.ics
    if ics is None:
        return ()
    sig = []
    for pc, entry in enumerate(ics):
        if entry is None:
            continue
        if icmod.entry_is_virtual(entry):
            sig.append((pc, min(entry[icmod.V_STATE], 3)))
        else:
            sig.append((pc, -1))
    return tuple(sig)


class JitCode:
    """One compiled body, installed on ``CompiledMethod.jit``.

    ``source`` is None on the records that stand where a body would:
    the plain-run manager's counting trampoline (repro.vm.jit.manager)
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

    __slots__ = (
        "fn",
        "entry0",
        "entries",
        "sig",
        "ic_sig",
        "source",
        "fused_expanded",
        "inline_sites",
        "exit_sites",
        "direct_sites",
        "poly_sites",
        "direct",
        "pad",
        "exit_table",
        "exit_counts",
    )

    def __init__(
        self, fn, entry0, entries, sig, ic_sig=None, source=None,
        fused_expanded=0, inline_sites=0, exit_sites=0, direct_sites=0,
        poly_sites=0, direct=None, pad=(), exit_table=(), exit_counts=(),
    ):
        self.fn = fn
        self.entry0 = entry0
        self.entries = entries
        self.sig = sig
        self.ic_sig = ic_sig
        self.source = source
        self.fused_expanded = fused_expanded
        self.inline_sites = inline_sites
        self.exit_sites = exit_sites
        self.direct_sites = direct_sites
        self.poly_sites = poly_sites
        self.direct = direct
        self.pad = pad
        self.exit_table = exit_table
        self.exit_counts = exit_counts


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
        self.compiler._exit_if(cond, self.pc, self.caller_vstack, "jit_guard_exits")


class _Compiler(optemplates.EmitContext):
    """One method's compilation; also the emit context of its own body:
    locals are ``lN`` and a fault precondition is a guard exit at the
    faulting pc with the op's operands back on the stack."""

    def __init__(self, method, program, cache, config, inline_leaves, emit_paths):
        self.method = method
        self.program = program
        self.cache = cache
        self.config = config
        self.inline_leaves = inline_leaves
        self.emit_paths = emit_paths

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
        self._branch_atom: Atom | None = None
        #: (pc, giveback) of the op being templated, for ``fault``.
        self._site: tuple = (0, None)

    # -- small emission helpers -------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def new_tmp(self) -> str:
        name = f"t{self.tmp}"
        self.tmp += 1
        return name

    def fault(self, cond, vstack, operands) -> None:
        pc, giveback = self._site
        self._exit_if(
            cond, pc, vstack + list(operands), "jit_guard_exits", giveback
        )

    def name(self, what: str) -> str:
        if what in _HEAP_CLASSES:
            return self._bake(what, _HEAP_CLASSES[what])
        self.uses.add(what)
        return "_" + what

    def charge(self, expr: str) -> None:
        self.w(f"time += {expr}")

    def _bake(self, name: str, value) -> str:
        self.baked[name] = value
        return name

    # -- exits ------------------------------------------------------------------

    def _exit(self, pc: int, vstack, counter: str, giveback=None) -> None:
        """Hand control back to the interpreter at instruction ``pc``
        with the counters charged exactly through the instructions that
        completed (``giveback`` refunds a pre-charged segment suffix).

        The site names its resume pc, live operand stack and index in
        the body's exit table and leaves the arm loop; counting the
        exit — against the site and in the VM's ``counter`` — and
        materializing the frame is the same for every exit of a body
        and is emitted once, after the loop (:meth:`_exit_tail`)."""
        if giveback is not None:
            gcost, gsteps = giveback
            if gcost:
                self.w(f"time -= {gcost}")
            self.w(f"steps -= {gsteps}")
        exprs = "".join(f"{a.expr}, " for a in vstack)
        key = (pc, _EXIT_KINDS[counter])
        index = self.exit_index.setdefault(key, len(self.exit_index))
        self.w(f"_xp, _xs, _xk = {pc}, ({exprs}), {index}")
        self.w("break")

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
        tail = ["    _xc[_xk] += 1", "    _xn = _xt[_xk]"]
        for number, counter in enumerate(_EXIT_KINDS):
            tail.append(f"    {'elif' if number else 'if'} _xn == {number}:")
            tail.append(f"        vm.{counter} += 1")
        n = self.method.num_locals
        if n:
            names = ", ".join(f"l{i}" for i in range(n))
            tail.append(f"    _L[:] = ({names},)")
        tail.append("    frame.pc = _xp")
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

    def _exit_if(self, cond: str, pc: int, vstack, counter: str, giveback=None) -> None:
        self.w(f"if {cond}:")
        self.indent += 1
        self._exit(pc, vstack, counter, giveback)
        self.indent -= 1

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
        """Expand the quickened stream to per-pc raw records
        ``(op, a, b, cost, ic_entry)``; fused heads go through
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
                    recs[p] = (comp, a[p], b[p], costs[p], None)
                self.fused_expanded += 1
                pc += len(comps)
                continue
            op, entry = f, None
            if f == icmod.OP_IC_CALL_VIRTUAL:
                op, entry = _OP_CALL_VIRTUAL, m.ics[pc]
            elif f == icmod.OP_IC_CALL_STATIC:
                op, entry = _OP_CALL_STATIC, m.ics[pc]
            recs[pc] = (op, a[pc], b[pc], costs[pc], entry)
            pc += 1
        self.recs = recs

    def _selector_returns(self, selector: int):
        shapes = self._sel_rv
        return shapes[selector] if selector < len(shapes) else None

    def _analyze(self) -> None:
        """Reachability + stack-depth pass; finds block leaders and the
        backward-jump targets eligible for OSR entry (depth 0)."""
        program = self.program
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
            op, a, b, _cost, _entry = rec
            succs: list[tuple[int, int]] = []
            if op == _OP_JUMP:
                jump_targets.add(a)
                succs.append((a, d))
                if a <= pc:
                    osr.add(a)
            elif op == _OP_JIF or op == _OP_JIT:
                jump_targets.add(a)
                succs.append((a, d - 1))
                succs.append((pc + 1, d - 1))
            elif op == _OP_RETURN or op == _OP_RETURN_VAL:
                pass
            elif op == _OP_CALL_STATIC:
                idx = a if _entry is None else _entry[icmod.S_INDEX]
                rv = program.functions[idx].returns_value
                succs.append((pc + 1, d - b + (1 if rv else 0)))
            elif op == _OP_CALL_VIRTUAL:
                rv = self._selector_returns(a)
                # Unknown return shape → the site always exits to the
                # interpreter, so the arm ends there: no successor.
                if rv is not None:
                    succs.append((pc + 1, d - (b + 1) + (1 if rv else 0)))
            else:
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
            op, a, b, cost, entry = self.recs[pc]
            if op == _OP_RETURN or op == _OP_RETURN_VAL:
                self._flush(seg, vstack)
                if not self.arm_progress:
                    self.zero_progress.add(leader)
                self.exit_sites += 1
                if self.inline_leaves:
                    self._emit_direct_return(pc, op, cost, vstack)
                self._exit(pc, vstack, "jit_return_exits")
                return
            if op == _OP_CALL_STATIC or op == _OP_CALL_VIRTUAL:
                self._flush(seg, vstack)
                seg = []
                if not self._emit_call(pc, op, a, b, cost, entry, vstack):
                    if not self.arm_progress:
                        self.zero_progress.add(leader)
                    return
                pc += 1
                continue
            seg.append(pc)
            if op == _OP_JUMP:
                self._flush(seg, vstack)
                seg = []
                if a <= pc and self.emit_paths:
                    self.uses.add("paths")
                    self.w("vm.time = time")
                    self.w(f"_p.on_jump_back({pc})")
                    self.w("time = vm.time")
                self._goto(a, vstack)
                return
            if op == _OP_JIF or op == _OP_JIT:
                self._flush(seg, vstack)
                seg = []
                atom = self._branch_atom
                self._branch_atom = None
                if op == _OP_JIF:
                    taken = atom.ncond if atom.ncond else f"{atom.expr} == 0"
                else:
                    taken = atom.cond if atom.cond else f"{atom.expr} != 0"
                self.w(f"if {taken}:")
                self.indent += 1
                if self.emit_paths:
                    self.uses.add("paths")
                    self.w("vm.time = time")
                    self.w(f"_p.on_branch({pc}, True)")
                    self.w("time = vm.time")
                self._goto(a, vstack)
                self.indent -= 1
                if self.emit_paths:
                    self.w("vm.time = time")
                    self.w(f"_p.on_branch({pc}, False)")
                    self.w("time = vm.time")
                pc += 1
                continue
            if SPEC_BY_OP[op].dyn_cost is not None:
                # A run-time charge ends the segment: the next lumped
                # tick guard must see it.
                self._flush(seg, vstack)
                seg = []
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
        self._exit_if(
            f"time + {total_cost} >= next_tick or "
            f"steps + {total_steps} >= {self.max_steps}",
            seg[0], vstack, "jit_deopts",
        )
        if total_cost:
            self.w(f"time += {total_cost}")
        self.w(f"steps += {total_steps}")
        self.arm_progress = True
        suffix_cost = total_cost
        suffix_steps = total_steps
        for p in seg:
            op, a, b, cost, _entry = recs[p]
            if op == _OP_JIF or op == _OP_JIT:
                self._branch_atom = vstack.pop()
            elif op != _OP_JUMP:
                # A fault exit refunds the pre-charged segment suffix.
                self._site = (p, (suffix_cost, suffix_steps))
                optemplates.emit(self, op, a, b, vstack)
            suffix_cost -= cost
            suffix_steps -= 1
        del seg[:]

    # -- call sites -------------------------------------------------------------

    def _emit_call(self, pc, op, a, b, cost, entry, vstack) -> bool:
        """Emit one call site.  Leaf-eligible targets are inlined per
        guarded receiver slot — pure leaf bodies expand textually into
        the caller, the rest call the compiled leaf closure (the
        interpreter's frame-free fast path) — targets without a leaf
        template are entered directly when they have a body, a virtual
        site past its two guards resolves the rest at run time
        (:meth:`_emit_poly_tail`), and everything else exits to the
        interpreter.  Returns True when the arm continues past the
        site."""
        w = self.w
        virtual = op == _OP_CALL_VIRTUAL
        nargs = b + 1 if virtual else b
        if virtual:
            rv = self._selector_returns(a)
        else:
            idx = a if entry is None else entry[icmod.S_INDEX]
            rv = self.program.functions[idx].returns_value
        always_exit = (
            not self.inline_leaves
            or (virtual and entry is None)
            or (virtual and rv is None)
        )
        if always_exit:
            self.exit_sites += 1
            self._exit(pc, vstack, "jit_call_exits")
            return False
        self.uses.add("room")
        self._bake("_LF", icmod.LEAF_FAIL)
        csc = cost + (self.call_virtual_cost if virtual else self.call_static_cost)
        # The interpreter's dispatch charges one step at the call pc and
        # its arm raises StepLimit on the incremented count; mirror the
        # check (uncharged de-opt → exact replay).
        self._exit_if(f"steps + 1 >= {self.max_steps}", pc, vstack, "jit_deopts")
        # Pin compound argument atoms up front: every guard branch below
        # must see the same caller stack (a temp emitted inside one
        # branch would be unbound along the others).
        for i in range(len(vstack) - nargs, len(vstack)):
            vstack[i] = self.pin(vstack[i])
        tres = self.new_tmp() if rv else None
        if virtual:
            recv = vstack[-nargs]
            ename = self._bake(f"_e{pc}", entry)
            guards = icmod.guard_classes(entry)
            if not guards:  # pragma: no cover - quickened entries bind slot 0
                self.exit_sites += 1
                self._exit(pc, vstack, "jit_call_exits")
                return False
            self._exit_if(f"{recv.expr} is None", pc, vstack, "jit_guard_exits")
            w(f"_rc = {recv.expr}.class_index")
            direct = []
            for i, (class_index, method_slot, cell) in enumerate(guards):
                kw = "if" if i == 0 else "elif"
                cname = self._bake(f"_c{i}_{pc}", cell)
                w(f"{kw} _rc == {class_index}:")
                self.indent += 1
                direct.append(self._emit_callee(
                    pc, vstack, nargs, entry[method_slot],
                    f"{ename}[{method_slot}]", cname, csc, tres, rv,
                    raw_static=None, tag=f"{i}_{pc}",
                ))
                self.indent -= 1
            w("else:")
            self.indent += 1
            if entry[icmod.V_STATE] >= 3:
                self._emit_poly_tail(pc, vstack, nargs, ename, a, csc, tres)
            else:
                self._exit(pc, vstack, "jit_guard_exits")
            self.indent -= 1
        elif entry is not None:
            ename = self._bake(f"_e{pc}", entry)
            direct = [self._emit_callee(
                pc, vstack, nargs, entry[icmod.S_METHOD],
                f"{ename}[{icmod.S_METHOD}]", None, csc, tres, rv,
                raw_static=None, tag=f"s{pc}",
            )]
        else:
            self._bake("_m", self.cache.methods)
            direct = [self._emit_callee(
                pc, vstack, nargs, self.cache.methods[a], f"_m[{a}]",
                None, csc, tres, rv, raw_static=a, tag=f"s{pc}",
            )]
        # Counted per site: a two-guard site with one target of each
        # kind is both an inlined and a direct call site.
        self.direct_sites += any(direct)
        self.inline_sites += not all(direct)
        if nargs:
            del vstack[len(vstack) - nargs:]
        if rv:
            vstack.append(Atom(tres, simple=True))
        self.arm_progress = True
        return True

    def _emit_callee(
        self, pc, vstack, nargs, callee, resolver, cellname, csc, tres, rv,
        raw_static, tag,
    ) -> bool:
        """Emit the body of one guarded call target, leaving the result
        (if any) in ``tres``; True when the target is entered directly.

        When the target's leaf template is pure — it never writes the
        heap — the body is expanded textually into the caller (same
        evaluator, :class:`_InlineLeaf` context) under an identity guard
        on the baked leaf tuple, eliding the closure call (and its
        argument tuple) entirely.  The identity guard also keeps adaptive
        recompiles honest: a replaced callee publishes a fresh leaf
        tuple, so the site exits until the manager re-jits the caller.
        Other leaf targets go through the generic guarded leaf-template
        call, and a target with no template at all is entered directly
        (:meth:`_emit_direct`)."""
        w = self.w
        w(f"_c = {resolver}")
        leaf = callee.leaf
        args = vstack[len(vstack) - nargs:] if nargs else []
        if leaf is None:
            self._emit_direct(pc, vstack, args, csc, tres)
        elif optemplates.PURE_LEAF_OPS.issuperset(leaf[icmod.L_OPS]):
            lname = self._bake(f"_lf{tag}", leaf)
            self._exit_if(
                f"_c.leaf is not {lname} or not _room", pc, vstack, "jit_call_exits"
            )
            self._exit_if(
                f"time + {csc + leaf[icmod.L_COST]} >= next_tick",
                pc, vstack, "jit_deopts",
            )
            ctx = _InlineLeaf(self, pc, vstack, args, leaf[icmod.L_NUM_LOCALS])
            ts: list[Atom] = []
            for lop, la in zip(leaf[icmod.L_OPS], leaf[icmod.L_A]):
                optemplates.emit(ctx, lop, la, None, ts)
            w(f"time += {csc + leaf[icmod.L_COST]}")
            w(f"steps += {1 + leaf[icmod.L_STEPS]}")
            if rv:
                w(f"{tres} = {ts.pop().expr}")
            w("call_count += 1")
            w("_leaf += 1")
        else:
            w("_lf = _c.leaf")
            self._emit_leaf_call(
                pc, vstack, args, csc, tres, "_lf is None or not _room"
            )
        if cellname is not None:
            w(f"{cellname}[0] += 1")
        if raw_static is not None:
            # Raw static site: the interpreter's raw arm would mark the
            # callee executed; the quickened arms never reach here first.
            self.uses.add("seen")
            w(f"if not _seen[{raw_static}]:")
            w(f"    _seen[{raw_static}] = True")
            w("    vm.methods_executed += 1")
        return leaf is None

    def _emit_leaf_call(self, pc, vstack, args, csc, tres, unfit) -> None:
        """Call the leaf closure in ``_lf`` — the interpreter's
        frame-free fast path — unless ``unfit`` (a call exit), a tick
        falls inside the call (deopt) or the closure would fault (guard
        exit; it has changed nothing)."""
        w = self.w
        arglist = "".join(f"{x.expr}, " for x in args)
        t = tres or self.new_tmp()
        self._exit_if(unfit, pc, vstack, "jit_call_exits")
        self._exit_if(
            f"time + {csc} + _lf[{icmod.L_COST}] >= next_tick",
            pc, vstack, "jit_deopts",
        )
        w(f"{t} = _lf[{icmod.L_FN}](({arglist}), 0)")
        self._exit_if(f"{t} is _LF", pc, vstack, "jit_guard_exits")
        w(f"time += {csc} + _lf[{icmod.L_COST}]")
        w(f"steps += 1 + _lf[{icmod.L_STEPS}]")
        w("call_count += 1")
        w("_leaf += 1")

    def _emit_poly_tail(self, pc, vstack, nargs, ename, selector, csc, tres) -> None:
        """A receiver class neither baked guard matched, at a site that
        has overflow bindings or is megamorphic: the interpreter's
        ``OP_IC_CALL_VIRTUAL`` miss arm in generated code.

        Resolve the callee — the overflow row bound to the class, else
        the flat dispatch table once the site is megamorphic — and call
        it the way a guarded target is called, as a leaf closure or
        directly.  A class the site could still bind is a guard exit
        (binding changes IC state and belongs to the interpreter), and
        so is a class without the selector (the interpreter raises).
        What the arm counts for a miss is counted after the last exit,
        so a call the interpreter replays is counted once, by it.  Only
        the megamorphic receiver cell is created up front, where the
        arm would, which keeps the site's cells in the interpreter's
        order under nesting; an exit leaves it at zero for the replay
        to bump, and every reader of the cells skips zeros."""
        w = self.w
        self.poly_sites += 1
        self.uses.update(("seen", "fv"))
        methods = self._bake("_m", self.cache.methods)
        w(f"for _t in {ename}[{icmod.V_REST}]:")
        w("    if _t[0] == _rc:")
        w("        _c, _ci, _cell = _t[1], _t[2], _t[5]")
        w("        break")
        w("else:")
        self.indent += 1
        w("_row = _fv[_rc]")
        w(f"_ci = _row[{selector}] if {selector} < len(_row) else -1")
        self._exit_if(
            f"{ename}[{icmod.V_STATE}] <= {icmod.POLY_LIMIT} or _ci < 0",
            pc, vstack, "jit_guard_exits",
        )
        w(f"_c = {methods}[_ci]")
        w(f"_cells = {ename}[{icmod.V_CELLS}]")
        w("_cell = _cells.get(_rc)")
        w("if _cell is None:")
        w("    _cell = _cells[_rc] = [0]")
        self.indent -= 1
        args = vstack[len(vstack) - nargs:]
        w("_lf = _c.leaf")
        w("if _lf is None:")
        self.indent += 1
        self._emit_direct(pc, vstack, args, csc, tres)
        self.indent -= 1
        w("else:")
        self.indent += 1
        self._emit_leaf_call(pc, vstack, args, csc, tres, "not _room")
        self.indent -= 1
        w("vm.ic_misses += 1")
        w("vm.jit_poly_calls += 1")
        w("_cell[0] += 1")
        # Overflow rows were marked when they were bound; the flat
        # table can name a method nothing has called yet.
        w("if not _seen[_ci]:")
        w("    _seen[_ci] = True")
        w("    vm.methods_executed += 1")

    def _emit_direct(self, pc, vstack, args, csc, tres) -> None:
        """The interpreter's non-leaf calling sequence, then the
        callee's body called as a host function (``_c`` is resolved).

        Every guard comes before the first charge, so each is an exact
        replay point, and the counters stay the caller's own until the
        callee returns them: a callee that hands back (None, see
        :func:`_hand_back`) leaves an ordinary call exit at this pc.
        The callee's frame is popped here, on the side that pushed
        it."""
        w = self.w
        self.uses.add("direct")
        fl = self._bake("_FL", _FREED_LOCALS)
        frame_cls = self._bake("_Frame", Frame)
        w("_j = _c.jit")
        self._exit_if(
            "_j is None or _j.direct is None or not _go",
            pc, vstack, "jit_call_exits",
        )
        # Past this guard the charged time is below the tick, which is
        # what entering a body requires; a tick inside the call charge
        # belongs to the callee's first instruction in a frame the
        # interpreter pushes.
        self._exit_if(f"time + {csc} >= next_tick", pc, vstack, "jit_deopts")
        new_locals = "[" + "".join(f"{x.expr}, " for x in args) + "*_j.pad]"
        w("if _pool:")
        w("    _f = _pool.pop()")
        w("    _f.method = _c")
        w("    _f.pc = 0")
        w(f"    _f.locals = {new_locals}")
        w(f"    _f.callsite_pc = {pc}")
        w("else:")
        w(f"    _f = {frame_cls}(_c, {new_locals}, {pc})")
        w("_frames.append(_f)")
        w(
            f"_r = _j.direct(vm, _f, time + {csc}, steps + 1, call_count + 1,"
            " next_tick, _d + 1)"
        )
        self._exit_if("_r is None", pc, vstack, "jit_call_exits")
        w("_frames.pop()")
        w(f"_f.locals = {fl}")
        w("_pool.append(_f)")
        w(f"time, steps, call_count, {tres or '_'}, _nl, _nd = _r")
        w("_leaf += _nl")
        w("_dc += _nd + 1")

    def _emit_direct_return(self, pc, op, cost, vstack) -> None:
        """``RETURN`` of a directly entered activation: the dispatch
        head's tick test, then the return charge and the value handed
        to the caller together with this activation's call counts.
        The interpreter checks no step limit at a return and the
        yieldpoint flag is clear wherever generated code runs."""
        self.w("if _d:")
        self.indent += 1
        head = f"time + {cost}" if cost else "time"
        self._exit_if(f"{head} >= next_tick", pc, vstack, "jit_deopts")
        value = vstack[-1].expr if op == _OP_RETURN_VAL else "None"
        counts = "_leaf, _dc" if self.has_calls else "0, 0"
        self.w(
            f"return (time + {cost + self.return_cost}, steps + 1, call_count,"
            f" {value}, {counts})"
        )
        self.indent -= 1

    # -- assembly ---------------------------------------------------------------

    def compile(self) -> JitCode | None:
        self._decode()
        self._analyze()
        method = self.method
        # Decide up front whether any exit must flush the call
        # counters: a loop can run an inlined call and later leave
        # through an exit emitted *before* that call site.
        self.has_calls = self.inline_leaves and any(
            rec is not None and rec[0] in (_OP_CALL_STATIC, _OP_CALL_VIRTUAL)
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
        if "paths" in self.uses:
            preamble.append("    _p = vm.path_tracker")
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
            sig=jit_sig(self.inline_leaves, self.emit_paths),
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
    method, program, cache, config, *, inline_leaves: bool, emit_paths: bool
) -> JitCode | None:
    """Template-compile one method; None when ineligible (too long,
    irregular stack shape, or no entry point would make progress)."""
    try:
        return _Compiler(
            method, program, cache, config, inline_leaves, emit_paths
        ).compile()
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
        emit_paths=sig & 2 != 0,
    )
    vm.jit_compile_s += perf_counter() - started
    if code is None:
        return False
    method.jit = code
    vm.jit_compiles += 1
    vm.jit_bodies.append((method, code))
    return True
