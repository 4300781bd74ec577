"""Generate the interpreter's dispatch loop from the opcode specs.

``python -m repro.vm.dispatchgen --write`` regenerates
:mod:`repro.vm._dispatch` (the committed file holding ``_loop``);
``--check`` exits nonzero if the committed file differs from what the
specs produce (the ``spec-smoke`` CI job runs this, so hand-edits to the
generated loop or spec/loop drift cannot land silently) and prints the
expected comparisons per dispatch; ``--measure`` re-counts the
dispatches :data:`ARM_WEIGHTS` records.

The generator is the single place dispatch semantics are spelled out:

* **data arms**, raw and fused, come from the one evaluator every other
  tier uses: :func:`repro.vm.optemplates.emit`, keyed by each opcode's
  :class:`~repro.bytecode.opcodes.OpSpec` row, run under
  :class:`ArmContext` (operands read at run time, the symbolic stack
  underflowing onto the real one).  A raw arm is the one-component
  case; a fused arm runs its components in order, with operand
  expressions from :data:`repro.vm.fuse.FUSED_LAYOUT` — the same table
  the fuser packs operands with, so handler and fuser cannot disagree,
* **control and IC arms** (:data:`CONTROL_EMITTERS`) are spelled out
  here: jump, branch, call and return from their specs (fault modes,
  step-limit class), the IC call arms with the entry layouts from
  :mod:`repro.vm.ic`,
* **arm selection** is a comparison tree laid out from measured dispatch
  counts (:data:`ARM_WEIGHTS`, :func:`build_tree`): ``op < K`` splits
  over the opcode numbers down to short ``op == X`` chains, so a
  dispatch pays about four tests on ``op`` instead of a walk down 73
  ``elif`` arms, and a new arm costs one more leaf entry, not one more
  test on every arm behind it,
* **every fault and step-limit raise site** is emitted by exactly one
  helper each (:func:`_fault_raise` / :func:`_step_limit_raise`), which
  is what keeps the error-parity invariant — sync
  :data:`~repro.bytecode.opcodes.FAULT_SYNCED_COUNTERS`, then raise
  with the spec's exception class, message, and attributed pc — in one
  place instead of ~20.

Mid-group fused faults are *derived*, not hand-stated: the faulting
component's offset attributes the pc, and the charge given back is the
sum of the trailing components' raw costs (the raw run never reached
them), so a fused fault transcript is bit-identical to the raw run's.
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys
from pathlib import Path
from typing import NamedTuple

from repro.bytecode.opcodes import OPCODE_SPECS, FaultSpec, Op, spec_of
from repro.vm import fuse as fusion
from repro.vm import ic as icache
from repro.vm import optemplates
from repro.vm.optemplates import Atom

#: Where the generated module lives.
TARGET = Path(__file__).resolve().parent / "_dispatch.py"

#: CompiledMethod attributes forming the ``views`` tuple, and the loop
#: locals they are cached in — one statement of the unpack order.
VIEW_FIELDS = ("fops", "a", "b", "fcosts", "fa", "fb", "origins", "ics")
VIEW_LOCALS = ("ops", "aarg", "barg", "costs", "faarg", "fbarg", "origins", "ics")

#: Measured dispatch counts per opcode, in parts per million of all
#: dispatches: the 13 benchsuite programs at ``tiny``, each run plain,
#: hooked and profile-optimised and each given equal weight.  The tree
#: is laid out from this table; re-measure (never hand-edit) with
#: ``python -m repro.vm.dispatchgen --measure`` and paste its output.
ARM_WEIGHTS = {
    "PUSH": 32808,
    "PUSH_NULL": 3066,
    "POP": 13593,
    "DUP": 23049,
    "LOAD": 54325,
    "STORE": 25021,
    "ADD": 18632,
    "SUB": 9183,
    "MUL": 5628,
    "DIV": 4843,
    "MOD": 15140,
    "NEG": 0,
    "NOT": 93,
    "LT": 11653,
    "LE": 1237,
    "GT": 2540,
    "GE": 6653,
    "EQ": 2644,
    "NE": 1631,
    "JUMP": 57179,
    "JUMP_IF_FALSE": 39350,
    "JUMP_IF_TRUE": 2249,
    "CALL_STATIC": 33,
    "CALL_VIRTUAL": 162,
    "RETURN": 3862,
    "RETURN_VAL": 10409,
    "NEW": 3989,
    "GETFIELD": 46280,
    "PUTFIELD": 13225,
    "IS_EXACT": 0,
    "GUARD_METHOD": 4888,
    "NEW_ARRAY": 380,
    "ALOAD": 48375,
    "ASTORE": 17840,
    "ARRAY_LEN": 4015,
    "PRINT": 21,
    "NOP": 0,
    "IC_CALL_VIRTUAL": 30059,
    "IC_CALL_STATIC": 1924,
    "F_LOAD_LOAD": 85929,
    "F_LOAD_PUSH": 13482,
    "F_LOAD_ADD": 11806,
    "F_LOAD_SUB": 2362,
    "F_LOAD_MUL": 1154,
    "F_LOAD_GETFIELD": 92702,
    "F_PUSH_STORE": 4566,
    "F_PUSH_ADD": 12575,
    "F_PUSH_SUB": 2799,
    "F_PUSH_MUL": 4285,
    "F_PUSH_MOD": 37863,
    "F_STORE_LOAD": 60655,
    "F_LT_JIF": 22203,
    "F_LE_JIF": 0,
    "F_GT_JIF": 106,
    "F_GE_JIF": 2922,
    "F_EQ_JIF": 7035,
    "F_NE_JIF": 6987,
    "F_LOAD_RET": 1741,
    "F_LOAD_PUSH_ADD": 835,
    "F_LOAD_PUSH_SUB": 6848,
    "F_LOAD_PUSH_MUL": 15727,
    "F_LOAD_LOAD_ADD": 2708,
    "F_PUSH_ADD_STORE": 10948,
    "F_LOAD_GETFIELD_STORE": 3726,
    "F_LOAD_PUSH_ADD_STORE": 34617,
    "F_LOAD_PUSH_ADD_RET": 99,
    "F_LOAD_PUSH_LT_JIF": 8172,
    "F_LOAD_PUSH_LE_JIF": 0,
    "F_LOAD_PUSH_GT_JIF": 2951,
    "F_LOAD_PUSH_GE_JIF": 624,
    "F_LOAD_PUSH_EQ_JIF": 1421,
    "F_LOAD_PUSH_NE_JIF": 0,
    "F_LOAD_LOAD_LT_JIF": 22148,
    "F_LOAD_LOAD_LE_JIF": 0,
    "F_LOAD_LOAD_GT_JIF": 2028,
    "F_LOAD_LOAD_GE_JIF": 0,
}

#: Opcodes that share one arm body (adjacent numbers, one ``or`` test).
SHARED_ARMS = (
    ("CALL_STATIC", "CALL_VIRTUAL"),
    ("RETURN", "RETURN_VAL"),
)

#: fuse-module attribute name -> fused id, and back.
_F_BY_NAME = {
    name: value
    for name, value in vars(fusion).items()
    if name.startswith("F_") and isinstance(value, int)
}

#: Every dispatchable opcode number, by the name ARM_WEIGHTS keys it with.
OPCODE_NUMBERS = {
    **{spec.op.name: int(spec.op) for spec in OPCODE_SPECS},
    **{
        name[len("OP_") :]: value
        for name, value in vars(icache).items()
        if name.startswith("OP_IC_")
    },
    **_F_BY_NAME,
}


class Emitter:
    """Line buffer with indentation tracking."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._depth = 0

    def __call__(self, line: str = "") -> None:
        if not line:
            self.lines.append("")
        else:
            self.lines.append("    " * self._depth + line)

    def raw(self, text: str) -> None:
        """Emit a multi-line chunk at the current indent.  ``text`` is
        written with zero base indentation; internal indentation is
        preserved."""
        for line in text.strip("\n").split("\n"):
            self(line) if line.strip() else self()

    class _Indent:
        def __init__(self, em: "Emitter", n: int) -> None:
            self.em = em
            self.n = n

        def __enter__(self) -> None:
            self.em._depth += self.n

        def __exit__(self, *exc) -> None:
            self.em._depth -= self.n

    def indent(self, n: int = 1) -> "_Indent":
        return Emitter._Indent(self, n)


def _message_literal(template: str, names: dict | None) -> str:
    """Render a FaultSpec message as a source-code literal: plain string
    when static, f-string when it has placeholders — ``names`` says what
    each stands for; one it leaves out is a loop local of that name."""
    if "{" not in template:
        return f'"{template}"'
    for var, expr in (names or {}).items():
        template = template.replace("{" + var + "}", "{" + expr + "}")
    return f'f"{template}"'


def _fault_raise(
    em: Emitter,
    fault,
    pc_expr: str = "pc",
    time_expr: str = "time",
    steps_expr: str = "steps",
    names: dict | None = None,
) -> None:
    """THE fault raise site.  Every guest fault in the generated loop is
    emitted here: one ``raise self._fault(...)`` carrying the spec's
    exception class and message plus the full counter sync
    (FAULT_SYNCED_COUNTERS — _fault writes them all back)."""
    em(f"raise self._fault(")
    with em.indent():
        em(f"{fault.error}, {_message_literal(fault.message, names)},")
        em(
            f"{time_expr}, {steps_expr}, call_count, fused_n, deopts, "
            f"frame, method, {pc_expr}"
        )
    em(")")


def _step_limit_raise(em: Emitter, pc_expr: str = "pc") -> None:
    """THE step-limit raise site (same single-site discipline)."""
    em("raise self._step_limit(")
    with em.indent():
        em(f"time, steps, call_count, fused_n, deopts, frame, method, {pc_expr}")
    em(")")


def _views_unpack_tuple(em: Emitter, source: str) -> None:
    em(f"{', '.join(VIEW_LOCALS)} = {source}")


# -- generated-module scaffolding ---------------------------------------------

_DQ = '"""'

_MODULE_DOC = (
    _DQ
    + """Generated dispatch loop for the Mini VM interpreter — DO NOT EDIT.

This file is produced from the declarative opcode specs
(repro.bytecode.opcodes.OPCODE_SPECS), the superinstruction layout table
(repro.vm.fuse.FUSED_LAYOUT), and the inline-cache entry layouts
(repro.vm.ic) by

    python -m repro.vm.dispatchgen --write

Hand edits are overwritten on the next regeneration, and the spec-smoke
CI job fails if this file differs from what the specs produce.  To
change dispatch behavior, edit the specs or the generator templates and
regenerate; see docs/OPCODES.md.

repro.vm.interpreter imports ``_loop`` from here and installs it as
``Interpreter._loop`` (it also injects ``Frame`` and ``_FREED_LOCALS``
below, avoiding a circular import).
"""
    + _DQ
)

_MODULE_IMPORTS = """
from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.vm import fuse as fusion
from repro.vm import ic as icache
from repro.vm.errors import (
    ArrayBoundsError,
    DivisionByZeroError,
    NullPointerError,
    StackOverflowError_,
    VMError,
)
from repro.vm.values import HeapArray, HeapObject
from repro.vm.yieldpoint import BACKEDGE, EPILOGUE, PROLOGUE

# Injected by repro.vm.interpreter at import time (the interpreter
# module owns these definitions; assigning them here would import it
# circularly).
Frame = None
_FREED_LOCALS = None
"""

_PREAMBLE_STATE = """
config = self.config
cost_model = config.cost_model
frames = self.frames
cache_methods = self.code_cache.methods
vtables = self.vtables
field_defaults = self.class_field_defaults
observer = self.call_observer
telemetry = self.telemetry
hooked = observer is not None or telemetry is not None
paths = self.path_tracker
seen = self._seen
pool = self._frame_pool

prologue_yp = config.prologue_yieldpoints
epilogue_yp = config.epilogue_yieldpoints
backedge_yp = config.backedge_yieldpoints
entry_extra = (
    0 if config.overloaded_entry_check else cost_model.dedicated_entry_check_cost
)
call_static_cost = cost_model.call_static_cost + entry_extra
call_virtual_cost = cost_model.call_virtual_cost + entry_extra
return_cost = cost_model.return_cost
max_frames = config.max_frames
max_steps = config.max_steps

frame = frames[-1]
method = frame.method
"""

_PREAMBLE_COUNTERS = """
stack = frame.stack
locals_ = frame.locals
pc = 0

time = self.time
next_tick = self.next_tick
steps = self.steps
call_count = self.call_count
fused_n = self.fused_dispatches
deopts = self.fusion_deopts
#: True while a pending tick forces step-wise (raw) execution of
#: a fused group; reset when the tick fires.  The tick always
#: fires inside the group, so this never survives a frame switch.
dequickened = False
"""

_PREAMBLE_IC = """
# Inline-cache quickened opcodes (see repro.vm.ic).  ``ics`` is
# None exactly when the code cache was built without ICs, in
# which case none of these opcodes ever appear in ``fops``.
OP_IC_CALL_VIRTUAL = icache.OP_IC_CALL_VIRTUAL
OP_IC_CALL_STATIC = icache.OP_IC_CALL_STATIC
LEAF_VOID = icache.LEAF_VOID
LEAF_FAIL = icache.LEAF_FAIL
POLY_LIMIT = icache.POLY_LIMIT
locals_pad = icache.locals_pad
flat_vtables = self.flat_vtables
"""

_PREAMBLE_JIT = """
# Opt-level-3 signature of this run's hook configuration (see
# repro.vm.jit.compiler.jit_sig): compiled bodies are entered
# only when they were generated for exactly these hooks.
jit_sig = (
    1 if (observer is None and telemetry is None and paths is None) else 0
)
if paths is not None:
    jit_sig |= 2

result = None
jrec = method.jit
if (
    jrec is not None
    and jrec.entry0
    and jrec.sig == jit_sig
    and self.yieldpoint_flag == 0
    and time < next_tick
):
    frame.pc = pc
    self.jit_entries += 1
    time, steps, call_count = jrec.fn(
        self, frame, time, steps, call_count, next_tick
    )
    pc = frame.pc
"""

_RAW_HEAD = """
# ---- raw instruction path (identical to the classic loop) ----
time += costs[pc]
steps += 1
if time >= next_tick:
    # Sync cached state, fire the timer, reload.
    self.time = time
    self.steps = steps
    self.call_count = call_count
    self.fused_dispatches = fused_n
    self.fusion_deopts = deopts
    frame.pc = pc
    self._fire_timer()
    time = self.time
    next_tick = self.next_tick
    if steps >= max_steps:
        raise self._step_limit(
            time, steps, call_count, fused_n, deopts, frame, method, pc
        )
    if dequickened:
        # The pending tick that forced step-wise execution
        # has fired; resume superinstruction dispatch.
        dequickened = False
        ops = method.fops
        costs = method.fcosts
"""


def _emit_preamble(em: Emitter) -> None:
    em.raw(_PREAMBLE_STATE)
    for field, local in zip(VIEW_FIELDS, VIEW_LOCALS):
        em(f"{local} = method.{field}")
    em.raw(_PREAMBLE_COUNTERS)
    em()
    em("# Opcode constants as plain ints (IntEnum comparison is slower).")
    for spec in OPCODE_SPECS:
        em(f"OP_{spec.op.name} = int(Op.{spec.op.name})")
    em.raw(_PREAMBLE_IC)
    em()
    em("# Superinstruction constants (see repro.vm.fuse).")
    em("FUSE_BASE = fusion.FUSE_BASE")
    for fid, _seq, _layout, _guard in fusion._PATTERNS:
        name = _attr_name(fid)
        em(f"{name} = fusion.{name}")
    em.raw(_PREAMBLE_JIT)


def _attr_name(fid: int) -> str:
    for name, value in _F_BY_NAME.items():
        if value == fid:
            return name
    raise AssertionError(f"no fuse-module name for fused id {fid}")


# -- control arms ------------------------------------------------------------


def _emit_jump_arm(em: Emitter, _arm) -> None:
    em("target = aarg[pc]")
    em("if target <= pc:")
    with em.indent():
        em("# Loop backedge: a yieldpoint site in the Jikes")
        em("# scheme, and a step-limit check site (the limit")
        em("# must bind even when no timer ever fires).")
        em("if steps >= max_steps:")
        with em.indent():
            _step_limit_raise(em)
        em("if backedge_yp and self.yieldpoint_flag > 0:")
        with em.indent():
            em("self.time = time")
            em("self.call_count = call_count")
            em("frame.pc = pc")
            em("self._take_yieldpoint(BACKEDGE)")
            em("time = self.time")
        em("if paths is not None:")
        with em.indent():
            em("# Unconditional back edge: record the path")
            em("# and reset the register (may charge).")
            em("self.time = time")
            em("paths.on_jump_back(pc)")
            em("time = self.time")
        em("# On-stack replacement: hot loops whose frame")
        em("# was entered before the body was compiled (or")
        em("# that de-optimized earlier) re-enter generated")
        em("# code at the loop head.")
        em("jrec = method.jit")
        em("if (")
        with em.indent():
            em("jrec is not None")
            em("and jrec.sig == jit_sig")
            em("and self.yieldpoint_flag == 0")
            em("and time < next_tick")
            em("and target in jrec.entries")
        em("):")
        with em.indent():
            em("frame.pc = target")
            em("self.jit_osr_entries += 1")
            em("time, steps, call_count = jrec.fn(")
            with em.indent():
                em("self, frame, time, steps, call_count, next_tick")
            em(")")
            em("pc = frame.pc")
            em("continue")
    em("pc = target")


def _emit_branch_arm(em: Emitter, arm) -> None:
    spec = spec_of(Op[arm[0]])
    taken_test = "== 0" if spec.arg == "false" else "!= 0"
    em(f"if stack.pop() {taken_test}:")
    with em.indent():
        em("target = aarg[pc]")
        em("if target <= pc and steps >= max_steps:")
        with em.indent():
            _step_limit_raise(em)
        em("if paths is not None:")
        with em.indent():
            em("self.time = time")
            em("paths.on_branch(pc, True)")
            em("time = self.time")
        em("pc = target")
    em("else:")
    with em.indent():
        em("if paths is not None:")
        with em.indent():
            em("self.time = time")
            em("paths.on_branch(pc, False)")
            em("time = self.time")
        em("pc += 1")


# -- call machinery (shared by the raw and IC call arms) ----------------------

_CALL_NOTIFY = """
if hooked:
    # Both hooks see the call site in baseline coordinates via
    # the inline map (see Instr.origin), resolved once.
    origin = origins[pc]
    if origin is None:
        caller_index = method.index
        site_pc = pc
    else:
        caller_index, site_pc = origin
    if observer is not None:
        # Observers may charge vm.time (instrumented modes),
        # so sync the cached counter around the call.
        self.time = time
        observer(caller_index, site_pc, callee_index)
        time = self.time
    if telemetry is not None:
        # Zero virtual cost.
        telemetry.on_call(time, caller_index, site_pc, callee_index)
"""

_PROLOGUE_AND_JIT = """
if prologue_yp and self.yieldpoint_flag != 0:
    self.time = time
    self.call_count = call_count
    self._take_yieldpoint(PROLOGUE)
    time = self.time
jrec = method.jit
if (
    jrec is not None
    and jrec.entry0
    and jrec.sig == jit_sig
    and self.yieldpoint_flag == 0
    and time < next_tick
):
    self.jit_entries += 1
    time, steps, call_count = jrec.fn(
        self, frame, time, steps, call_count, next_tick
    )
    pc = frame.pc
"""


def _stack_overflow_fault(em: Emitter, spec) -> None:
    overflow = next(f for f in spec.faults if f.kind == "stack_overflow")
    em("if len(frames) >= max_frames:")
    with em.indent():
        _fault_raise(em, overflow)


def _emit_frame_switch(em: Emitter, *, nargs_expr: str, pad: bool) -> None:
    em(f"base = len(stack) - {nargs_expr}")
    em("new_locals = stack[base:]")
    em("del stack[base:]")
    if pad:
        em("if pad:")
        with em.indent():
            em("new_locals.extend(pad)")
    else:
        em("if callee.num_locals > nargs:")
        with em.indent():
            em("new_locals.extend([0] * (callee.num_locals - nargs))")
    em("frame.pc = pc + 1  # return address")
    em("if pool:")
    with em.indent():
        em("frame = pool.pop()")
        em("frame.method = callee")
        em("frame.pc = 0")
        em("frame.locals = new_locals")
        em("frame.callsite_pc = pc")
    em("else:")
    with em.indent():
        em("frame = Frame(callee, new_locals, pc)")
    em("frames.append(frame)")
    em("if paths is not None:")
    with em.indent():
        em("paths.on_call(callee)")
    em("method = callee")
    _views_unpack_tuple(em, "views")
    em("stack = frame.stack")
    em("locals_ = frame.locals")
    em("pc = 0")
    em.raw(_PROLOGUE_AND_JIT)


def _emit_leaf_fastpath(em: Emitter, *, nargs_expr: str, cell: bool) -> None:
    """Try the leaf calling sequence: run an accessor-like callee as a
    host closure with no frame.  Emitted *after* the call is charged and
    notified, so hooks fire once on either route and an observer's
    charge is on the clock before the "could a tick land inside the
    body" test.  The closure returns LEAF_FAIL before changing anything
    on a would-be fault; the generic sequence that follows replays it."""
    em("leaf = callee.leaf")
    em("if (")
    with em.indent():
        em("leaf is not None")
        if cell:
            em("and cell is not None")
        em("and paths is None")
        em("and self.yieldpoint_flag == 0")
        em(f"and time + leaf[{icache.L_COST}] < next_tick")
        em("and len(frames) < max_frames")
    em("):")
    with em.indent():
        em(f"base = len(stack) - {nargs_expr}")
        em(f"value = leaf[{icache.L_FN}](stack, base)")
        em("if value is not LEAF_FAIL:")
        with em.indent():
            em(f"time += leaf[{icache.L_COST}]")
            em(f"steps += leaf[{icache.L_STEPS}]")
            em("del stack[base:]")
            em("if value is not LEAF_VOID:")
            with em.indent():
                em("stack.append(value)")
            em("pc += 1")
            em("continue")


def _emit_call_arm(em: Emitter, _arm) -> None:
    """The raw CALL_STATIC|CALL_VIRTUAL arm (un-quickened sites)."""
    vspec = spec_of(Op.CALL_VIRTUAL)
    em("if steps >= max_steps:")
    with em.indent():
        em("# Calls are the other place the step limit must")
        em("# bind without a timer (recursion never crosses")
        em("# a backedge).")
        _step_limit_raise(em)
    em("if op == OP_CALL_VIRTUAL:")
    with em.indent():
        em("argc = barg[pc]")
        em("receiver = stack[-argc - 1]")
        em("if receiver is None:")
        with em.indent():
            _fault_raise(em, vspec.faults[0])
        em("try:")
        with em.indent():
            em("callee_index = vtables[receiver.class_index][aarg[pc]]")
        em("except KeyError:")
        with em.indent():
            em("self._sync(")
            with em.indent():
                em("time, steps, call_count, fused_n, deopts, frame, pc")
            em(")")
            em("raise self._missing_selector(")
            with em.indent():
                em("receiver.class_index, aarg[pc], method, pc")
            em(") from None")
        em("callee = cache_methods[callee_index]")
        em("nargs = argc + 1")
        em("time += call_virtual_cost")
        em("if ics is not None:")
        with em.indent():
            em("# First execution of this site under ICs:")
            em("# build the cache entry and quicken it.")
            em("self._quicken_virtual(")
            with em.indent():
                em("method, pc, receiver.class_index, callee, nargs")
            em(")")
    em("else:")
    with em.indent():
        em("callee = cache_methods[aarg[pc]]")
        em("callee_index = callee.index")
        em("nargs = barg[pc]")
        em("time += call_static_cost")
        em("if ics is not None:")
        with em.indent():
            em("self._quicken_static(method, pc, callee, nargs)")
    em("call_count += 1")
    em("if not seen[callee_index]:")
    with em.indent():
        em("seen[callee_index] = True")
        em("self.methods_executed += 1")
    em.raw(_CALL_NOTIFY)
    _stack_overflow_fault(em, vspec)
    em("views = callee.views")
    _emit_frame_switch(em, nargs_expr="nargs", pad=False)


def _emit_frame_pop(em: Emitter) -> None:
    em("dead = frames.pop()")
    em("if not frames:")
    with em.indent():
        em("result = value")
        em("break")
    em("del dead.stack[:]")
    em("dead.locals = _FREED_LOCALS")
    em("pool.append(dead)")
    em("frame = frames[-1]")
    em("method = frame.method")
    _views_unpack_tuple(em, "method.views")
    em("stack = frame.stack")
    em("locals_ = frame.locals")
    em("pc = frame.pc")


def _emit_return_arm(em: Emitter, _arm) -> None:
    em("time += return_cost")
    em("if epilogue_yp and self.yieldpoint_flag != 0:")
    with em.indent():
        em("self.time = time")
        em("self.call_count = call_count")
        em("frame.pc = pc")
        em("self._take_yieldpoint(EPILOGUE)")
        em("time = self.time")
    em("value = stack.pop() if op == OP_RETURN_VAL else None")
    em("if paths is not None:")
    with em.indent():
        em("# Record the completed path (may charge the")
        em("# record cost) before the frame dies.")
        em("self.time = time")
        em("paths.on_return(pc)")
        em("time = self.time")
    _emit_frame_pop(em)
    em("if value is not None or op == OP_RETURN_VAL:")
    with em.indent():
        em("stack.append(value)")


def _emit_ic_virtual_arm(em: Emitter, _arm) -> None:
    vspec = spec_of(Op.CALL_VIRTUAL)
    em("# Quickened virtual call.  Entry layout (repro.vm.ic):")
    em("# [0]=nargs, [1..6]=slot0 (class, method, index,")
    em("# views, pad, cell), [7..12]=slot1, [13]=overflow,")
    em("# [14]=selector, [15]=state, [16]=cells, [17]=site.")
    em("if steps >= max_steps:")
    with em.indent():
        _step_limit_raise(em)
    em("entry = ics[pc]")
    em("nargs = entry[0]")
    em("receiver = stack[-nargs]")
    em("if receiver is None:")
    with em.indent():
        _fault_raise(em, vspec.faults[0])
    em("rclass = receiver.class_index")
    em("if rclass == entry[1]:")
    with em.indent():
        em("cell = entry[6]")
        em("callee = entry[2]")
        em("callee_index = entry[3]")
        em("views = entry[4]")
        em("pad = entry[5]")
    em("elif rclass == entry[7]:")
    with em.indent():
        em("cell = entry[12]")
        em("callee = entry[8]")
        em("callee_index = entry[9]")
        em("views = entry[10]")
        em("pad = entry[11]")
    em("else:")
    with em.indent():
        em("# Both inline slots missed.  Overflow-bound")
        em("# classes and megamorphic flat-table resolution")
        em("# are handled here in the arm (not in the slow")
        em("# path) so their callees still reach the leaf")
        em("# fast path below; only binding a new class")
        em("# leaves the loop.")
        em("cell = None")
        em("rest = entry[13]")
        em("if rest is not None:")
        with em.indent():
            em("for r in rest:")
            with em.indent():
                em("if r[0] == rclass:")
                with em.indent():
                    em("self.ic_misses += 1")
                    em("callee = r[1]")
                    em("callee_index = r[2]")
                    em("views = r[3]")
                    em("pad = r[4]")
                    em("cell = r[5]")
                    em("break")
        em("if cell is None:")
        with em.indent():
            em("if entry[15] > POLY_LIMIT:")
            with em.indent():
                em("# Megamorphic: resolve through the flat")
                em("# selector-indexed tables, never growing")
                em("# the cache.")
                em("self.ic_misses += 1")
                em("selector = entry[14]")
                em("row = flat_vtables[rclass]")
                em("callee_index = (")
                with em.indent():
                    em("row[selector] if selector < len(row) else -1")
                em(")")
                em("if callee_index < 0:")
                with em.indent():
                    em("self._sync(")
                    with em.indent():
                        em("time, steps, call_count, fused_n,")
                        em("deopts, frame, pc,")
                    em(")")
                    em("raise self._missing_selector(")
                    with em.indent():
                        em("rclass, selector, method, pc")
                    em(")")
                em("callee = cache_methods[callee_index]")
                em("cells = entry[16]")
                em("cell = cells.get(rclass)")
                em("if cell is None:")
                with em.indent():
                    em("cell = cells[rclass] = [0]")
                em("if not seen[callee_index]:")
                with em.indent():
                    em("seen[callee_index] = True")
                    em("self.methods_executed += 1")
                em("views = callee.views")
                em("pad = locals_pad(callee.num_locals, nargs)")
            em("else:")
            with em.indent():
                em("# May raise (missing selector): sync the")
                em("# counters first so the transcript is")
                em("# exact; it's the bind slow path anyway.")
                em("self._sync(")
                with em.indent():
                    em("time, steps, call_count, fused_n,")
                    em("deopts, frame, pc,")
                em(")")
                em("callee, callee_index, views, pad = (")
                with em.indent():
                    em("self._ic_virtual_slow(")
                    with em.indent():
                        em("entry, rclass, method, pc")
                    em(")")
                em(")")
    em("if cell is not None:")
    with em.indent():
        em("cell[0] += 1")
    em("time += call_virtual_cost")
    em("call_count += 1")
    em.raw(_CALL_NOTIFY)
    em("# Cache hits only: a freshly bound class takes the frame.")
    _emit_leaf_fastpath(em, nargs_expr="nargs", cell=True)
    _stack_overflow_fault(em, vspec)
    _emit_frame_switch(em, nargs_expr="entry[0]", pad=True)


def _emit_ic_static_arm(em: Emitter, _arm) -> None:
    sspec = spec_of(Op.CALL_STATIC)
    em("# Quickened static call: [method, index, views, pad,")
    em("# nargs] — the target is a constant.")
    em("if steps >= max_steps:")
    with em.indent():
        _step_limit_raise(em)
    em("entry = ics[pc]")
    em("callee = entry[0]")
    em("callee_index = entry[1]")
    em("time += call_static_cost")
    em("call_count += 1")
    em.raw(_CALL_NOTIFY)
    _emit_leaf_fastpath(em, nargs_expr="entry[4]", cell=False)
    _stack_overflow_fault(em, sspec)
    em("views = entry[2]")
    em("pad = entry[3]")
    _emit_frame_switch(em, nargs_expr="entry[4]", pad=True)


#: The arms this module spells out itself, by ``OpSpec.kind`` or IC
#: opcode name; every other arm is data and comes from ``optemplates``.
CONTROL_EMITTERS = {
    "jump": _emit_jump_arm,
    "branch": _emit_branch_arm,
    "call": _emit_call_arm,
    "return": _emit_return_arm,
    "IC_CALL_VIRTUAL": _emit_ic_virtual_arm,
    "IC_CALL_STATIC": _emit_ic_static_arm,
}


# -- data arms (optemplates under the interpreter's own context) --------------

_ROLE_NAMES = {
    Op.PUSH: "k",
    Op.STORE: "dst",
    Op.LOAD: "other",
    Op.GETFIELD: "offset",
    Op.JUMP_IF_FALSE: "target",
}


def _operand_exprs(fid: int):
    """comp index -> source expression for its ``a`` operand, plus the
    unpack statement when several operands ride in the ``fb`` tuple.
    Derived from the very layout rows the fuser packs operands with."""
    comps = [Op(c) for c in fusion.FUSED_COMPONENTS[fid]]
    fa_desc, fb_desc = fusion.FUSED_LAYOUT[fid]
    opnd: dict[int, str] = {}
    unpack = None
    if fa_desc is not None:
        opnd[int(fa_desc[1:])] = "faarg[pc]"
    if isinstance(fb_desc, tuple):
        names = [_ROLE_NAMES[comps[int(d[1:])]] for d in fb_desc]
        assert len(set(names)) == len(names), f"operand-name clash in {fid}"
        for d, name in zip(fb_desc, names):
            opnd[int(d[1:])] = name
        unpack = f"{', '.join(names)} = fbarg[pc]"
    elif fb_desc is not None:
        opnd[int(fb_desc[1:])] = "fbarg[pc]"
    return comps, opnd, unpack


def _mid_group_refund(idx: int, arity: int) -> tuple[str, str, str]:
    """Fault attribution for component ``idx`` of an ``arity``-wide
    group: the pc of the faulting component, and the head's up-front
    charge minus the trailing components the raw run never reached."""
    trailing = list(range(idx + 1, arity))
    time_expr = "time" + "".join(f" - costs[pc + {j}]" for j in trailing)
    steps_expr = f"steps - {len(trailing)}" if trailing else "steps"
    pc_expr = f"pc + {idx}" if idx else "pc"
    return time_expr, steps_expr, pc_expr


#: optemplates' names for VM tables, as the loop's preamble binds them.
_HOST_NAMES = {"vt": "vtables", "fd": "field_defaults", "out": "self.output"}

#: The deepest real operand of an arm that leaves nothing behind.
_INLINE_POP = "stack.pop()"


def _bare(expr: str) -> str:
    """``expr`` without a pair of parentheses that encloses all of it."""
    depth = 0
    for i, ch in enumerate(expr):
        depth += (ch == "(") - (ch == ")")
        if depth == 0:
            return expr[1:-1] if i and i == len(expr) - 1 else expr
    return expr


class _Operands(list):
    """An arm's symbolic operand stack.  Empty, it underflows onto the
    real ``stack``: the values beneath it are the ones the interpreter
    pushed before this arm was dispatched."""

    def __init__(self, ctx: "ArmContext") -> None:
        super().__init__()
        self.ctx = ctx

    def pop(self):
        return super().pop() if self else self.ctx.underflow()

    def __getitem__(self, index):
        if not self:
            self.append(self.ctx.underflow())
        return super().__getitem__(index)


class ArmContext(optemplates.EmitContext):
    """One dispatch arm of the interpreter: ``comps`` run in order by
    :func:`repro.vm.optemplates.emit`, a raw arm being the one-component
    case.  Operands are expressions read at run time, locals live in
    ``locals_[...]``, and a fault raises on the spot with the counters
    synced and, mid-group, the trailing components' charge given back.

    Real operands are taken top first.  The spec rows say how many the
    arm consumes and whether it leaves a value behind, so every operand
    but the deepest is popped into a name where it is asked for, and the
    deepest is a ``stack[-1]`` peek the bottom result replaces in place —
    or, when nothing comes back, an inline ``stack.pop()``."""

    def __init__(self, em: Emitter, comps) -> None:
        self.em = em
        self.arity = len(comps)
        self.idx = 0  # the component being emitted
        depth = self.need = 0
        for comp in comps:
            spec = spec_of(comp)
            self.need += max(spec.pops - depth, 0)
            depth = max(depth - spec.pops, 0) + spec.pushes
        self.results = depth
        self.taken = self.tmps = 0
        #: The atom that is what the real ``stack[-1]`` still holds.
        self.inplace = None
        self.vstack = _Operands(self)

    def w(self, line: str) -> None:
        self.em(line)

    def new_tmp(self) -> str:
        self.tmps += 1
        return f"t{self.tmps - 1}"

    def name(self, what: str) -> str:
        return _HOST_NAMES.get(what, what)  # heap classes go by their own

    def charge(self, expr: str) -> None:
        self.w(f"time += {expr}")

    def load(self, slot) -> Atom:
        return Atom(f"locals_[{slot}]", deps=frozenset((slot,)))

    def const(self, a) -> Atom:
        return Atom(a, simple=a.isidentifier(), isint=True)

    def underflow(self) -> Atom:
        self.taken += 1
        assert self.taken <= self.need, "an opcode popped more than its spec row says"
        if self.taken < self.need:
            name = "right" if self.taken == 1 else self.new_tmp()
            self.w(f"{name} = stack.pop()")
            return Atom(name, simple=True)
        if self.results:
            self.inplace = Atom("stack[-1]")
            return self.inplace
        return Atom(_INLINE_POP)

    def drop(self, atom: Atom) -> None:
        if atom.expr == _INLINE_POP:
            self.w(_INLINE_POP)

    def pin_force(self, atom: Atom) -> Atom:
        pinned = super().pin_force(atom)
        if atom is self.inplace:
            self.inplace = pinned
        return pinned

    def _forward(self, atom: Atom, live) -> str:
        """``atom``'s text for the statement about to be written.  When
        the line just written only bound it to a temp nothing in ``live``
        reads, that line is taken back and its right-hand side used (what
        keeps ``stack[-1] = obj.fields[...]`` one statement)."""
        lines = self.em.lines
        bound = f"{atom.expr} = "
        if lines[-1].lstrip().startswith(bound) and not any(
            atom.expr in other.expr for other in live
        ):
            return lines.pop().lstrip()[len(bound) :]
        return atom.expr

    def store(self, slot, value: Atom, vstack) -> None:
        # Slots are run-time values: any local still read from the
        # symbolic stack may be the one overwritten.
        for i, atom in enumerate(vstack):
            if atom.deps:
                vstack[i] = self.pin_force(atom)
        self.w(f"locals_[{slot}] = {_bare(self._forward(value, vstack))}")

    def guard(self, modes, vstack, operands) -> None:
        time_expr, steps_expr, pc_expr = _mid_group_refund(self.idx, self.arity)
        for fault, test, names in modes:
            self.w(f"if {test}:")
            with self.em.indent():
                if self.idx + 1 < self.arity:
                    self.w("# Fault mid-group: attribute the raw pc and")
                    self.w("# give back the trailing components' charge")
                    self.w("# (the raw run never reached them).")
                _fault_raise(self.em, fault, pc_expr, time_expr, steps_expr, names)

    def flush(self) -> None:
        """Write the symbolic stack back: the bottom value over the
        peeked ``stack[-1]`` (in place when it is that slot's own binop,
        not at all when it is that slot, untouched), the rest appended."""
        assert self.taken == self.need, "an opcode popped less than its spec row says"
        values = list(self.vstack)
        del self.vstack[:]
        if self.inplace is not None:
            bottom = values.pop(0)
            if bottom is not self.inplace:
                expr = self._forward(bottom, values)
                inner = _bare(expr)
                own = inner != expr and re.fullmatch(r"stack\[-1\] ([-+*]) (.+)", inner)
                if own:
                    self.w(f"stack[-1] {own[1]}= {own[2]}")
                else:
                    self.w(f"stack[-1] = {inner}")
        for i, value in enumerate(values):
            self.w(f"stack.append({_bare(self._forward(value, values[i + 1 :]))})")


def _emit_components(em: Emitter, comps, opnd: dict, b=None) -> ArmContext:
    """Run ``comps`` through the evaluator up to a control tail, which is
    the caller's: it pops what the tail consumes off ``ctx.vstack``."""
    ctx = ArmContext(em, comps)
    for ctx.idx, comp in enumerate(comps):
        if spec_of(comp).kind in optemplates.CONTROL_KINDS:
            assert ctx.idx == len(comps) - 1, "control is fused only as a tail"
            break
        optemplates.emit(ctx, comp, opnd.get(ctx.idx), b, ctx.vstack)
    return ctx


def _emit_raw_arm_body(em: Emitter, arm: tuple[str, ...]) -> None:
    name = arm[0]
    key = name if name.startswith("IC_") else spec_of(Op[name]).kind
    if key in CONTROL_EMITTERS:
        CONTROL_EMITTERS[key](em, arm)
    else:
        assert len(arm) == 1, "data arms are not shared"
        _emit_components(em, [Op[name]], {0: "aarg[pc]"}, "barg[pc]").flush()
        em("pc += 1")


def _emit_fused_arm_body(em: Emitter, arm: tuple[str, ...]) -> None:
    (name,) = arm
    comps, opnd, unpack = _operand_exprs(_F_BY_NAME[name])
    arity = len(comps)
    tail = spec_of(comps[-1])
    em(f"steps += {arity}")
    if unpack:
        em(unpack)
    ctx = _emit_components(em, comps, opnd)
    if tail.kind not in optemplates.CONTROL_KINDS:
        ctx.flush()
        em(f"pc += {arity}")
        return
    top = ctx.vstack.pop()
    assert not ctx.vstack, "a control tail leaves nothing on the symbolic stack"
    ctx.flush()
    if tail.kind == "branch":
        # JUMP_IF_FALSE: fall through while the value is true.
        assert tail.arg == "false"
        em(f"if {_bare(top.cond or top.expr + ' != 0')}:")
        with em.indent():
            em(f"pc += {arity}")
        em("else:")
        with em.indent():
            if opnd[arity - 1] != "target":
                em(f"target = {opnd[arity - 1]}")
            em(f"if target <= pc + {arity - 1} and steps >= max_steps:")
            with em.indent():
                _step_limit_raise(em, pc_expr=f"pc + {arity - 1}")
            em("pc = target")
    else:
        # RETURN_VAL: the shared epilogue / frame-pop sequence.
        em(f"value = {_bare(top.expr)}")
        em("time += return_cost")
        em("if epilogue_yp and self.yieldpoint_flag != 0:")
        with em.indent():
            em("self.time = time")
            em("self.call_count = call_count")
            em(f"frame.pc = pc + {arity - 1}")
            em("self._take_yieldpoint(EPILOGUE)")
            em("time = self.time")
        _emit_frame_pop(em)
        em("stack.append(value)")


# -- loop assembly ------------------------------------------------------------

_FUSED_HEAD = """
# ---- superinstruction path ----
cost = costs[pc]
if time + cost >= next_tick:
    # A tick lands inside this group: de-quicken so it
    # fires on exactly the instruction the unfused
    # interpreter would fire it on.  (The group's
    # cumulative charge crosses the boundary at its last
    # nonzero-cost component at the latest, so the tick
    # — and the view restore — always happens inside
    # the group, before any call or return.)
    dequickened = True
    deopts += 1
    ops = method.ops
    costs = method.costs
    continue
time += cost
fused_n += 1
"""

#: No arm owns the number.  Every tree leaf ends in ``else: break`` and
#: the raise sits once per path after the loop, not once per leaf.  The
#: verifier (raw) and the fuse/loop agreement test (fused) keep both
#: unreachable from compiled programs; a hand-patched stream still syncs
#: counters exactly like every other fault.
_UNKNOWN_OPCODE = FaultSpec("unknown_opcode", "VMError", "unknown opcode {op}")
_UNKNOWN_SUPER = FaultSpec(
    "unknown_superinstruction", "VMError", "unknown superinstruction {op}"
)


class Leaf(NamedTuple):
    """An ``if/elif`` chain of ``op == X`` tests, heaviest arm first,
    whose ``else`` is the unknown-opcode exit.  An arm is the tuple of
    opcode names that share its body."""

    arms: tuple[tuple[str, ...], ...]


class Split(NamedTuple):
    """``if op < pivot:`` *below* ``else:`` *above*."""

    pivot: int
    below: "Split | Leaf"
    above: "Split | Leaf"


def _check_coverage() -> None:
    """Every opcode and every superinstruction must own exactly one
    weight, hence exactly one arm."""
    assert set(ARM_WEIGHTS) == set(OPCODE_NUMBERS), (
        "ARM_WEIGHTS does not cover the opcode set exactly: "
        f"{set(ARM_WEIGHTS) ^ set(OPCODE_NUMBERS)}"
    )
    assert set(_F_BY_NAME.values()) == set(fusion.FUSED_COMPONENTS), (
        "fuse-module names do not cover the fuse table exactly: "
        f"{set(_F_BY_NAME.values()) ^ set(fusion.FUSED_COMPONENTS)}"
    )
    assert len(set(OPCODE_NUMBERS.values())) == len(OPCODE_NUMBERS), "opcode number clash"
    for arm in SHARED_ARMS:
        numbers = sorted(OPCODE_NUMBERS[name] for name in arm)
        assert numbers == list(range(numbers[0], numbers[0] + len(arm))), (
            f"shared arm {arm} is not a run of adjacent numbers"
        )


def _weight(*names: str) -> int:
    """Tree weight of an arm.  A zero count weighs 1, so a run of
    never-measured arms is split evenly, not chained without bound."""
    return sum(max(ARM_WEIGHTS[name], 1) for name in names)


def _arms(raw: bool) -> list[tuple[str, ...]]:
    """The raw+IC or the fused arms in opcode-number order."""
    shared = {}
    for arm in SHARED_ARMS:
        arm = tuple(sorted(arm, key=lambda name: (-_weight(name), OPCODE_NUMBERS[name])))
        shared.update(dict.fromkeys(arm, arm))
    arms: list[tuple[str, ...]] = []
    for name in sorted(OPCODE_NUMBERS, key=OPCODE_NUMBERS.get):
        arm = shared.get(name, (name,))
        if (OPCODE_NUMBERS[name] < fusion.FUSE_BASE) == raw and arm not in arms:
            arms.append(arm)
    return arms


def _chain(arms) -> tuple[int, Leaf]:
    """``arms`` as one leaf, and the weighted ``op == X`` tests it costs."""
    chain = sorted(arms, key=lambda arm: (-_weight(*arm), OPCODE_NUMBERS[arm[0]]))
    tests = cost = 0
    for arm in chain:
        for name in arm:
            tests += 1
            cost += tests * _weight(name)
    return cost, Leaf(tuple(chain))


def build_tree(raw: bool) -> "Split | Leaf":
    """The comparison tree over the raw+IC arms or over the fused arms.

    Of all trees whose inner nodes split the number line at ``op < K``
    and whose leaves are ``op == X`` chains, the one costing the fewest
    expected comparisons under :data:`ARM_WEIGHTS` (the interval dynamic
    programme of an optimal alphabetic tree; a tie goes to the chain,
    then to the lowest pivot).
    """
    arms = _arms(raw)
    best: dict[tuple[int, int], tuple[int, Split | Leaf]] = {}
    for span in range(1, len(arms) + 1):
        for lo in range(len(arms) - span + 1):
            hi = lo + span
            choice = _chain(arms[lo:hi])
            entered = sum(_weight(*arm) for arm in arms[lo:hi])
            for mid in range(lo + 1, hi):
                cost = entered + best[lo, mid][0] + best[mid, hi][0]
                if cost < choice[0]:
                    pivot = min(OPCODE_NUMBERS[name] for name in arms[mid])
                    choice = (cost, Split(pivot, best[lo, mid][1], best[mid, hi][1]))
            best[lo, hi] = choice
    return best[0, len(arms)][1]


def tree_path(node: "Split | Leaf", number: int) -> tuple[tuple[str, ...] | None, int]:
    """Walk ``node`` as the generated code does for opcode ``number``:
    the arm reached (``None`` for the unknown-opcode exit) and the
    comparisons on ``op`` spent getting there."""
    tests = 0
    while isinstance(node, Split):
        tests += 1
        node = node.below if number < node.pivot else node.above
    for arm in node.arms:
        for name in arm:
            tests += 1
            if OPCODE_NUMBERS[name] == number:
                return arm, tests
    return None, tests


def expected_comparisons() -> float:
    """Comparisons on ``op`` per dispatch below the ``op < FUSE_BASE``
    root, averaged over :data:`ARM_WEIGHTS`."""
    trees = {True: build_tree(raw=True), False: build_tree(raw=False)}
    total = 0
    for name, weight in ARM_WEIGHTS.items():
        number = OPCODE_NUMBERS[name]
        total += weight * tree_path(trees[number < fusion.FUSE_BASE], number)[1]
    return total / sum(ARM_WEIGHTS.values())


def _emit_tree(em: Emitter, node: "Split | Leaf") -> None:
    if isinstance(node, Split):
        em(f"if op < {node.pivot}:")
        with em.indent():
            _emit_tree(em, node.below)
        em("else:")
        with em.indent():
            _emit_tree(em, node.above)
        return
    for i, arm in enumerate(node.arms):
        fused = arm[0] in _F_BY_NAME
        test = " or ".join(f"op == {name if fused else 'OP_' + name}" for name in arm)
        em(f"{'elif' if i else 'if'} {test}:")
        with em.indent():
            (_emit_fused_arm_body if fused else _emit_raw_arm_body)(em, arm)
    em("else:")
    with em.indent():
        em("break")


def _emit_loop(em: Emitter, counting: bool) -> None:
    em("def _loop(self):  # noqa: C901 - deliberately one flat hot loop")
    with em.indent():
        _emit_preamble(em)
        em("while True:")
        with em.indent():
            em("op = ops[pc]")
            if counting:
                em("_hist[op] += 1")
            em("if op < FUSE_BASE:")
            with em.indent():
                em.raw(_RAW_HEAD)
                _emit_tree(em, build_tree(raw=True))
            em("else:")
            with em.indent():
                em.raw(_FUSED_HEAD)
                _emit_tree(em, build_tree(raw=False))
        em()
        em("if frames:")
        with em.indent():
            em("# A tree leaf's ``else: break``: no arm owns ``op``.")
            em("if op < FUSE_BASE:")
            with em.indent():
                _fault_raise(em, _UNKNOWN_OPCODE)
            _fault_raise(em, _UNKNOWN_SUPER)
        em("self.time = time")
        em("self.steps = steps")
        em("self.call_count = call_count")
        em("self.fused_dispatches = fused_n")
        em("self.fusion_deopts = deopts")
        em("return result")


def generate_source(*, counting: bool = False) -> str:
    """The text of :mod:`repro.vm._dispatch`.  ``counting`` adds the one
    ``_hist[op] += 1`` line ``--measure`` counts dispatches with; that
    variant is exec'd from memory and never written anywhere."""
    _check_coverage()
    em = Emitter()
    em.raw(_MODULE_DOC)
    em()
    em.raw(_MODULE_IMPORTS)
    em()
    em()
    _emit_loop(em, counting)
    return "\n".join(em.lines).rstrip("\n") + "\n"


# -- measuring the weights ----------------------------------------------------


def measure_weights() -> tuple[dict[str, int], list[str]]:
    """Count dispatches per opcode over the benchsuite and return the
    table to commit as :data:`ARM_WEIGHTS` plus the arms nothing ran.

    All 13 programs at ``tiny``, each three ways — plain
    ``jikes_config()``, hooked as the harness's table cells are
    (exhaustive + CBS(3, 16) on level-0 code) and the profile-optimised
    rerun (``NewJikesInliner`` plans from that CBS profile) — on a
    counting copy of the generated loop.  A program's three histograms
    are summed and scaled to the same total, so a long-running program
    weighs no more than a short one.
    """
    from repro.adaptive.modes import jit_only_cache
    from repro.benchsuite import benchmark_names, program_for
    from repro.inlining.new_inliner import NewJikesInliner
    from repro.opt.pipeline import optimize_function
    from repro.profiling.cbs import CBSProfiler
    from repro.profiling.exhaustive import ExhaustiveProfiler
    from repro.vm import interpreter
    from repro.vm.config import jikes_config

    hist = [0] * 256
    namespace: dict = {}
    exec(compile(generate_source(counting=True), "<dispatchgen --measure>", "exec"), namespace)
    namespace.update(
        Frame=interpreter.Frame, _FREED_LOCALS=interpreter._FREED_LOCALS, _hist=hist
    )
    config = jikes_config()

    def counted(program, cache=None):
        vm = interpreter.Interpreter(program, config, cache)
        vm._loop = namespace["_loop"].__get__(vm)
        return vm

    names = sorted(OPCODE_NUMBERS, key=OPCODE_NUMBERS.get)
    share = dict.fromkeys(names, 0.0)
    for bench in benchmark_names():
        program = program_for(bench, "tiny")
        hist[:] = [0] * len(hist)
        counted(program).run()
        hooked = counted(program, jit_only_cache(program, config.cost_model, level=0))
        ExhaustiveProfiler().install(hooked)
        cbs = CBSProfiler(stride=3, samples_per_tick=16)
        hooked.attach_profiler(cbs)
        hooked.run()
        rerun = counted(program, jit_only_cache(program, config.cost_model, level=0))
        policy = NewJikesInliner(program)
        for function in program.functions:
            plan = policy.plan_for(function.index, cbs.dcg)
            if not plan.is_empty():
                rerun.code_cache.install(optimize_function(program, plan).function, 2)
        rerun.run()
        total = sum(hist)
        for name in names:
            share[name] += hist[OPCODE_NUMBERS[name]] / total
    programs = len(benchmark_names())
    weights = {name: round(1_000_000 * share[name] / programs) for name in names}
    return weights, [name for name in names if share[name] == 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.vm.dispatchgen",
        description="Regenerate the Mini VM dispatch loop from the opcode specs.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--write", action="store_true", help="write the generated loop to _dispatch.py"
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="exit 1 with a diff if _dispatch.py is stale (default)",
    )
    mode.add_argument(
        "--measure",
        action="store_true",
        help="count dispatches per opcode over the benchsuite and print ARM_WEIGHTS",
    )
    args = parser.parse_args(argv)
    if args.measure:
        weights, never = measure_weights()
        print("ARM_WEIGHTS = {")
        for name, weight in weights.items():
            print(f'    "{name}": {weight},')
        print("}")
        print(f"# arms no benchsuite run dispatched ({len(never)}): {', '.join(never)}")
        return 0
    text = generate_source()
    comparisons = f"{expected_comparisons():.2f} expected comparisons per dispatch"
    if args.write:
        TARGET.write_text(text)
        print(f"wrote {TARGET} ({len(text.splitlines())} lines, {comparisons})")
        return 0
    current = TARGET.read_text() if TARGET.exists() else ""
    if current == text:
        print(f"{TARGET.name} is up to date ({comparisons})")
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            current.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=f"committed {TARGET.name}",
            tofile="generated from specs",
        )
    )
    print(
        f"\n{TARGET.name} is stale: regenerate with "
        "`python -m repro.vm.dispatchgen --write`"
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
