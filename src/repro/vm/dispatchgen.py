"""Generate the interpreter's dispatch loop from the opcode specs.

``python -m repro.vm.dispatchgen --write`` regenerates
:mod:`repro.vm._dispatch` (the committed file holding ``_loop``);
``--check`` exits nonzero if the committed file differs from what the
specs produce (``tests/vm/test_dispatch_tree.py`` runs this, so
hand-edits to the generated loop or spec/loop drift cannot land
silently) and prints the expected comparisons per dispatch;
``--measure`` re-counts the dispatches, re-picks the superinstruction
windows from the counts (:data:`repro.vm.fuse.WINDOWS`) and prints them
with the :data:`ARM_WEIGHTS` they imply.

Every arm — raw, inline-cache and fused, data and control — comes from
the one evaluator every other tier uses, :func:`repro.vm.optemplates.emit`,
keyed by each opcode's :class:`~repro.bytecode.opcodes.OpSpec` row and
run under :class:`ArmContext`: operands read at run time, the symbolic
stack underflowing onto the real one, and the leave hooks of an arm
(set ``pc``, switch frames, enter compiled code, raise).  A raw arm is
the one-component case; a fused arm runs its components in order, with
operand expressions from :data:`repro.vm.fuse.FUSED_OPERANDS`, the
layout the fuser packs operands with.  What the generator itself adds is:

* **arm selection**, a comparison tree laid out from measured dispatch
  counts (:data:`ARM_WEIGHTS`, :func:`build_tree`): ``op < K`` splits
  over the opcode numbers down to short ``op == X`` chains, so a
  dispatch pays about four tests on ``op``, and a new arm costs one
  more leaf entry, not one more test on every arm behind it,
* **one raise site per kind** (:func:`_fault_raise` /
  :func:`_step_limit_raise`), which keeps the error-parity invariant —
  sync :data:`~repro.bytecode.opcodes.FAULT_SYNCED_COUNTERS`, then raise
  with the spec's exception class, message and attributed pc — in one
  place.

Mid-group fused faults are *derived*, not hand-stated: a fused arm
records the fault and its component's offset and leaves the loop, and
one tail after it (:data:`_GROUP_FAULT`) attributes the pc from the
offset and gives back the trailing components' raw costs and steps (the
raw run never reached them), so a fused fault transcript is
bit-identical to the raw run's.
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from repro.bytecode.opcodes import OPCODE_SPECS, FaultSpec, Op
from repro.vm import fuse as fusion
from repro.vm import ic as icache
from repro.vm import optemplates
from repro.vm.optemplates import Atom, Callee, bare

#: Where the generated module lives.
TARGET = Path(__file__).resolve().parent / "_dispatch.py"

#: CompiledMethod attributes forming the ``views`` tuple, and the loop
#: locals they are cached in — one statement of the unpack order.
VIEW_FIELDS = ("fops", "a", "b", "fcosts", "fa", "fb", "origins", "ics")
VIEW_LOCALS = ("ops", "aarg", "barg", "costs", "faarg", "fbarg", "origins", "ics")

#: Measured dispatch counts per opcode, in parts per million of all
#: dispatches: the 13 benchsuite programs at ``tiny``, each run plain,
#: hooked and profile-optimised and each given equal weight, with the
#: measured windows fused.  The tree is laid out from this table;
#: re-measure (never hand-edit) with ``python -m repro.vm.dispatchgen
#: --measure`` and paste its output.
ARM_WEIGHTS = {
    "PUSH": 26899,
    "PUSH_NULL": 2,
    "POP": 9849,
    "DUP": 4011,
    "LOAD": 26592,
    "STORE": 47238,
    "ADD": 16898,
    "SUB": 8690,
    "MUL": 12992,
    "DIV": 1663,
    "MOD": 3585,
    "NEG": 0,
    "NOT": 157,
    "LT": 3083,
    "LE": 509,
    "GT": 4499,
    "GE": 2265,
    "EQ": 4093,
    "NE": 3261,
    "JUMP": 101208,
    "JUMP_IF_FALSE": 39912,
    "JUMP_IF_TRUE": 2006,
    "CALL_STATIC": 52,
    "CALL_VIRTUAL": 253,
    "RETURN": 6354,
    "RETURN_VAL": 19013,
    "NEW": 135,
    "GETFIELD": 6102,
    "PUTFIELD": 4458,
    "IS_EXACT": 0,
    "GUARD_METHOD": 783,
    "NEW_ARRAY": 540,
    "ALOAD": 6652,
    "ASTORE": 3181,
    "ARRAY_LEN": 4403,
    "PRINT": 35,
    "NOP": 0,
    "IC_CALL_VIRTUAL": 48382,
    "IC_CALL_STATIC": 2939,
    "F_LOAD_GETFIELD_LOAD": 37599,
    "F_LOAD_PUSH_ADD_STORE": 58501,
    "F_LOAD_LOAD": 46709,
    "F_LOAD_PUSH": 26439,
    "F_ADD_PUSH_MOD_STORE": 9873,
    "F_LT_JIF": 4546,
    "F_LOAD_LOAD_GETFIELD": 9793,
    "F_LOAD_GETFIELD_MOD_ALOAD_GETFIELD_PUSH_LT_JIF": 9175,
    "F_LOAD_LOAD_LT_JIF": 40232,
    "F_LOAD_GETFIELD": 18055,
    "F_LOAD_PUSH_MUL_PUSH_ADD_PUSH_MOD_STORE": 11220,
    "F_ALOAD_STORE_LOAD": 10577,
    "F_PUSH_SUB_ALOAD_ASTORE_LOAD_PUSH_SUB_STORE": 7000,
    "F_LOAD_GETFIELD_LOAD_GETFIELD": 11023,
    "F_LOAD_PUSH_MOD": 17796,
    "F_MUL_LOAD_ADD_LOAD_ADD_PUSH_MOD_STORE": 6917,
    "F_ALOAD_MUL_PUSH_DIV_ADD_STORE": 7149,
    "F_STORE_DUP_GUARD_METHOD_JIF": 7195,
    "F_GE_DUP_JIF": 5869,
    "F_LOAD_LOAD_GETFIELD_LT_JIF": 19186,
    "F_ASTORE_LOAD_PUSH_ADD_STORE": 8666,
    "F_LOAD_LOAD_GETFIELD_PUSH_ADD_PUTFIELD": 6888,
    "F_LOAD_GETFIELD_LOAD_ALOAD_LOAD_LOAD": 9028,
    "F_PUSH_MOD": 8738,
    "F_LOAD_LOAD_GETFIELD_LOAD_LOAD_SUB_ALOAD_LOAD": 3943,
    "F_LOAD_PUSH_LT_JIF": 15486,
    "F_LOAD_GETFIELD_PUSH_NULL_EQ_JIF": 4736,
    "F_LT_DUP_JIF": 8868,
    "F_LOAD_GETFIELD_LOAD_ALOAD_STORE_LOAD_LOAD": 8291,
    "F_STORE_LOAD_LOAD_GETFIELD_NE_JIF": 4841,
    "F_LOAD_LOAD_GETFIELD_LOAD_ALOAD_LOAD_GETFIELD_LOAD": 7149,
    "F_LOAD_GETFIELD_LOAD_NE_JIF": 6079,
    "F_POP_LOAD_GETFIELD_LOAD_GETFIELD_ALOAD_PUSH": 4993,
    "F_PUSH_EQ_JIF": 5535,
    "F_POP_LOAD_LOAD_LT": 5911,
    "F_LOAD_LOAD_PUSH_MOD_ADD": 6132,
    "F_LOAD_SUB_ALOAD_ASTORE_LOAD_LOAD_SUB_STORE": 1710,
    "F_LOAD_PUSH_GT_JIF": 7319,
    "F_ALOAD_STORE_LOAD_LOAD_GE_DUP_JIF": 4750,
    "F_LOAD_LOAD_PUTFIELD": 8216,
    "F_STORE_STORE_STORE_LOAD_GETFIELD_JIF": 2091,
    "F_POP_LOAD_LOAD_PUSH_SUB_LT": 2566,
    "F_LOAD_LOAD_PUSH_LOAD_LOAD_ADD_PUSH_MOD": 2552,
    "F_ALOAD_STORE_LOAD_LOAD_GETFIELD_PUSH_ADD_PUTFIELD": 1903,
    "F_STORE_LOAD_LOAD_MUL_PUSH_DIV_LOAD_LOAD": 1325,
    "F_LOAD_LOAD_ALOAD_ASTORE_LOAD_PUSH_ADD_STORE": 4179,
    "F_LOAD_PUSH_MUL_LOAD_GETFIELD_LOAD_GETFIELD_ALOAD": 2904,
    "F_LOAD_PUSH_MOD_ASTORE_LOAD_PUSH_ADD_STORE": 7978,
    "F_MUL_LOAD_ADD_PUSH_MOD_STORE": 3912,
    "F_PUSH_STORE": 7629,
    "F_NEW_DUP": 5982,
    "F_LOAD_LOAD_GT_JIF": 3379,
    "F_STORE_LOAD_PUSH_GE_JIF": 1767,
    "F_LOAD_GETFIELD_LOAD_LOAD_GETFIELD_LOAD": 8710,
    "F_LOAD_GETFIELD_LOAD_GETFIELD_SUB": 5329,
    "F_LOAD_GETFIELD_LOAD_GETFIELD_ARRAY_LEN_GE_JIF": 1916,
    "F_LOAD_PUSH_EQ_JIF": 2324,
    "F_STORE_LOAD_PUSH_LE_DUP_JUMP_IF_TRUE": 1318,
    "F_LOAD_GETFIELD_STORE": 5189,
    "F_LOAD_LOAD_SUB_STORE_LOAD_PUSH_LT_JIF": 2221,
}


def arm_name(window) -> str:
    """The loop's name for a superinstruction arm: ``F_`` and its component
    opcodes, a ``JUMP_IF_FALSE`` tail spelled ``JIF`` (``F_LT_JIF``)."""
    return "F_" + "_".join(Op(op).name for op in window).replace("JUMP_IF_FALSE", "JIF")


#: Arm name of each superinstruction -> its fused id.
_F_BY_NAME = {arm_name(seq): fid for fid, seq in fusion.FUSED_COMPONENTS.items()}

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

    @contextmanager
    def indent(self):
        self._depth += 1
        yield
        self._depth -= 1


def _message_literal(template: str, names: dict | None) -> str:
    """Render a FaultSpec message as a source-code literal: plain string
    when static, f-string when it has placeholders — ``names`` says what
    each stands for; one it leaves out is a loop local of that name."""
    if "{" not in template:
        return f'"{template}"'
    for var, expr in (names or {}).items():
        template = template.replace("{" + var + "}", "{" + expr + "}")
    return f'f"{template}"'


def _fault_raise(em: Emitter, error: str, message: str, pc_expr: str = "pc") -> None:
    """THE fault raise site.  Every guest fault in the generated loop is
    emitted here: one ``raise self._fault(...)`` carrying the exception
    class and message (source expressions) plus the full counter sync
    (FAULT_SYNCED_COUNTERS — _fault writes them all back)."""
    em(f"raise self._fault(")
    with em.indent():
        em(f"{error}, {message},")
        em(f"time, steps, call_count, fused_n, deopts, frame, method, {pc_expr}")
    em(")")


def _spec_raise(em: Emitter, fault, names: dict | None = None) -> None:
    """Raise ``fault`` (a FaultSpec) at ``pc``."""
    _fault_raise(em, fault.error, _message_literal(fault.message, names))


def _step_limit_raise(em: Emitter, pc_expr: str = "pc") -> None:
    """THE step-limit raise site (same single-site discipline)."""
    em("raise self._step_limit(")
    with em.indent():
        em(f"time, steps, call_count, fused_n, deopts, frame, method, {pc_expr}")
    em(")")


# -- generated-module scaffolding ---------------------------------------------

_DQ = '"""'

_MODULE_DOC = (
    _DQ
    + """Generated dispatch loop for the Mini VM interpreter — DO NOT EDIT.

This file is produced from the declarative opcode specs
(repro.bytecode.opcodes.OPCODE_SPECS), the measured superinstruction
table (repro.vm.fuse.WINDOWS), and the inline-cache entry layouts
(repro.vm.ic) by

    python -m repro.vm.dispatchgen --write

Hand edits are overwritten on the next regeneration, and
tests/vm/test_dispatch_tree.py fails if this file differs from what the
specs produce.  To change dispatch behavior, edit the specs or the
generator templates and regenerate; see docs/OPCODES.md.

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
cache_methods = self.code_cache.built
cache_current = self.code_cache.current
vtables = self.vtables
field_defaults = self.class_field_defaults
observer = self.call_observer
telemetry = self.telemetry
hooked = observer is not None or telemetry is not None
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
#: (exception class, message, component) of a fused arm's guest fault,
#: which the arm leaves the loop to raise.
fault = None
"""

_PREAMBLE_IC = """
# Inline-cache quickened opcodes (see repro.vm.ic).  ``ics`` is
# None exactly when the code cache was built without ICs, in
# which case none of these opcodes ever appear in ``fops``.
OP_IC_CALL_VIRTUAL = icache.OP_IC_CALL_VIRTUAL
OP_IC_CALL_STATIC = icache.OP_IC_CALL_STATIC
LEAF_VOID = icache.LEAF_VOID
LEAF_FAIL = icache.LEAF_FAIL
locals_pad = icache.locals_pad
flat_vtables = self.flat_vtables
"""

_PREAMBLE_JIT = """
# Opt-level-3 signature of this run's hook configuration (see
# repro.vm.jit.compiler.jit_sig): compiled bodies are entered
# only when they were generated for exactly these hooks.
jit_sig = 0 if hooked else 1

result = None
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
    for name, fid in _F_BY_NAME.items():
        em(f"{name} = FUSE_BASE + {fid - fusion.FUSE_BASE}")
    em.raw(_PREAMBLE_JIT)
    _emit_jit_entry(em, "jrec.entry0", ("frame.pc = pc", "self.jit_entries += 1"))


def _emit_jit_entry(em: Emitter, entry_test: str, prelude, tail=()) -> None:
    """Run ``method``'s compiled body from ``frame.pc`` when the hooks
    match, no tick or yieldpoint is pending and ``entry_test`` says the
    body can start there."""
    em("jrec = method.jit")
    em(
        "if jrec is not None and jrec.sig == jit_sig and self.yieldpoint_flag == 0"
        f" and time < next_tick and {entry_test}:"
    )
    with em.indent():
        for line in prelude:
            em(line)
        em("time, steps, call_count = jrec.fn(self, frame, time, steps, call_count, next_tick)")
        em("pc = frame.pc")
        for line in tail:
            em(line)


# -- data arms (optemplates under the interpreter's own context) --------------

def _operand_exprs(fid: int):
    """``(field, component)`` -> the source expression the arm reads that
    operand from, plus the unpack statement when several ride in the
    ``fb`` tuple, each named by its field and component (``a1``, ``b1``).
    Derived from the very layout the fuser packs operands with."""
    packed = fusion.FUSED_OPERANDS[fid]
    exprs = dict(zip(packed[:1], ["faarg[pc]"]))
    rest = packed[1:]
    if len(rest) == 1:
        exprs[rest[0]] = "fbarg[pc]"
        return exprs, None
    names = [f"{field}{comp}" for field, comp in rest]
    exprs.update(zip(rest, names))
    return exprs, f"{', '.join(names)} = fbarg[pc]" if names else None


#: optemplates' names for VM tables and loop state, as the preamble binds them.
_HOST_NAMES = {
    "vt": "vtables",
    "fd": "field_defaults",
    "out": "self.output",
    "vm": "self",
    "fv": "flat_vtables",
    "methods": "cache_methods",
    "current": "cache_current",
}

#: The deepest real operand of an arm that leaves nothing behind.
_INLINE_POP = "stack.pop()"


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
    or, when nothing comes back, an inline ``stack.pop()``.  A call reads
    its arguments off the real stack itself.

    The arm leaves by setting ``pc`` (``continue`` past the rest of a
    branch), by switching frames — a call's frame push, prologue and
    entry into a compiled body, a return's pop — or by a raise.  A call
    site's resolved cases bind one set of names and share the calling
    sequence after them; a leaf callee runs frameless and ``continue``s,
    anything else falls through to the generic sequence."""

    yieldpoints = joins = True
    hooked = "hooked"
    quickens = "ics is not None"

    def __init__(self, em: Emitter, comps) -> None:
        self.em = em
        self.comps = comps
        self.arity = len(comps)
        self.idx = 0  # the component being emitted
        depth = self.need = 0
        for comp in comps:
            spec = optemplates.spec_and_kind(comp)[0]
            pops = spec.pops or 0
            self.need += max(pops - depth, 0)
            depth = max(depth - pops, 0) + (spec.pushes or 0)
        self.results = depth
        self.taken = self.tmps = 0
        #: The atom that is what the real ``stack[-1]`` still holds.
        self.inplace = None
        self.vstack = _Operands(self)

    @property
    def pc(self) -> str:
        return f"pc + {self.idx}" if self.idx else "pc"

    def w(self, line: str) -> None:
        self.em(line)

    def indented(self):
        return self.em.indent()

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
        self.w(f"locals_[{slot}] = {bare(self._forward(value, vstack))}")

    def guard(self, modes, vstack, operands) -> None:
        for fault, test, names in modes:
            self.w(f"if {test}:")
            with self.em.indent():
                if self.arity == 1:
                    _spec_raise(self.em, fault, names)
                else:
                    # The loop's one group-fault tail raises it.
                    message = _message_literal(fault.message, names)
                    self.w(f"fault = {fault.error}, {message}, {self.idx}")
                    self.w("break")

    def flush(self, live=()) -> None:
        """Write the symbolic stack back: the bottom value over the
        peeked ``stack[-1]`` (in place when it is that slot's own binop,
        not at all when it is that slot, untouched), the rest appended.
        ``live`` are atoms still to be read after the write-back."""
        assert self.taken == self.need, "an opcode popped less than its spec row says"
        values = list(self.vstack)
        del self.vstack[:]
        if self.inplace is not None:
            bottom = values.pop(0)
            if bottom is not self.inplace:
                expr = self._forward(bottom, [*values, *live])
                inner = bare(expr)
                own = inner != expr and re.fullmatch(r"stack\[-1\] ([-+*]) (.+)", inner)
                if own:
                    self.w(f"stack[-1] {own[1]}= {own[2]}")
                else:
                    self.w(f"stack[-1] = {inner}")
            self.inplace = None
        for i, value in enumerate(values):
            self.w(f"stack.append({bare(self._forward(value, [*values[i + 1 :], *live]))})")

    def settle(self) -> None:
        """Write back every value beneath the top one, so a branch tail
        that leaves them behind leaves them on either way out."""
        top = self.vstack.pop()
        self.flush((top,))
        self.vstack.append(top)

    # -- how the arm leaves ------------------------------------------------

    def next(self, vstack) -> None:
        self.flush()
        self.w(f"pc += {self.arity}")

    def goto(self, target, vstack) -> None:
        self.flush()
        self.w(f"pc = {target}")
        self.w("continue")

    def target(self, a) -> str:
        if a.isidentifier():
            return a
        self.w(f"target = {a}")
        return "target"

    def step_limit(self, when=None) -> None:
        self.w(f"if {when} and steps >= max_steps:" if when else "if steps >= max_steps:")
        with self.em.indent():
            _step_limit_raise(self.em, self.pc)

    def _switch(self, method: str, views: str, pc: str) -> None:
        """Make ``frame`` the running activation of ``method``."""
        self.w(f"method = {method}")
        self.w(f"{', '.join(VIEW_LOCALS)} = {views}")
        self.w("stack = frame.stack")
        self.w("locals_ = frame.locals")
        self.w(f"pc = {pc}")

    def _sync(self) -> None:
        self.w(f"self._sync(time, steps, call_count, fused_n, deopts, frame, {self.pc})")

    def jit_entry(self, target) -> None:
        # On-stack replacement: a loop whose frame was entered before its
        # body was compiled (or that de-optimized) re-enters at its head.
        _emit_jit_entry(
            self.em,
            f"{target} in jrec.entries",
            (f"frame.pc = {target}", "self.jit_osr_entries += 1"),
            ("continue",),
        )

    def returning(self, value, vstack):
        yield

    def charge_fixed(self, key: str, calls: int = 0) -> None:
        self.w(f"time += {key}")
        if calls:
            self.w("call_count += 1")

    def commit(self, *lines) -> None:
        for line in lines:
            self.w(line)

    def commit_point(self) -> None:
        pass

    def pop_frame(self, value) -> None:
        self.flush()
        if value is not None:
            self.w(f"value = {bare(value.expr)}")
        self.w("dead = frames.pop()")
        self.w("if not frames:")
        self.w(f"    result = {'None' if value is None else 'value'}")
        self.w("    break")
        self.w("del dead.stack[:]")
        self.w("dead.locals = _FREED_LOCALS")
        self.w("pool.append(dead)")
        self.w("frame = frames[-1]")
        self._switch("frame.method", "method.views", "frame.pc")
        if value is not None:
            self.w("stack.append(value)")

    def calling(self, spec, a, b, vstack):
        entry = None
        if self.comps[0] >= icache.IC_BASE:
            self.w("entry = ics[pc]")
            entry, b = "entry", f"entry[{icache.S_NARGS}]"
        if spec.arg == "virtual":
            self.w(f"nargs = entry[{icache.V_NARGS}]" if entry else f"nargs = {b} + 1")
            b = "nargs"
        yield optemplates.Site(entry, b)

    def receiver(self, site, vstack) -> str:
        self.w(f"receiver = stack[-{site.nargs}]")
        return "receiver"

    def guards(self, site):
        return [
            (f"{site.entry}[{first}]", first)
            for first in (icache.V_CLASS0, icache.V_CLASS1)
        ]

    def bind(self, site, callee: Callee) -> Callee:
        for name, expr in zip(_BOUND, callee):
            if expr is not None and expr != name:
                self.w(f"{name} = {expr}")
        cell = "cell" if callee.cell else None
        return Callee(*_BOUND[:4], cell, cell and "cell is not None")

    def resolves_miss(self, site) -> bool:
        return True

    @contextmanager
    def bind_slow(self, site, rclass, cond):
        # Binding a new class grows the cache: the interpreter's slow
        # path, counters synced first (it may raise a missing selector).
        self.w(f"if {cond}:")
        with self.em.indent():
            self.w("cell = None")
            self._sync()
            self.w(
                f"callee, callee_index, views, pad = self._ic_virtual_slow("
                f"{site.entry}, {rclass}, method, {self.pc})"
            )
        self.w("else:")
        with self.em.indent():
            yield

    def missing_selector(self, test, rclass, selector) -> None:
        self.w(f"if {test}:")
        with self.em.indent():
            self._sync()
            self.w(f"raise self._missing_selector({rclass}, {selector}, method, {self.pc})")

    def leaf(self, site, callee: Callee):
        """A quickened site whose callee has a leaf template runs it as a
        host closure with no frame.  It comes after the call is charged
        and notified, so hooks fire once on either route and an
        observer's charge is on the clock before the tick test; a cache
        miss the slow path just bound takes the frame.  A closure
        returns LEAF_FAIL before changing anything on a would-be fault,
        and the generic sequence after it replays the call.  A raw site
        quickens itself for next time and takes the frame."""
        if site.entry is not None:
            self.w("leaf = callee.leaf")
            self.w("if (")
            self.w("    leaf is not None")
            if callee.hit:
                self.w(f"    and {callee.hit}")
            self.w("    and self.yieldpoint_flag == 0")
            self.w(f"    and time + leaf[{icache.L_COST}] < next_tick")
            self.w("    and len(frames) < max_frames")
            self.w("):")
            with self.em.indent():
                self.w(f"base = len(stack) - {site.nargs}")
                self.w(f"value = leaf[{icache.L_FN}](stack, base)")
                self.w("if value is not LEAF_FAIL:")
                with self.em.indent():
                    self.w(f"time += leaf[{icache.L_COST}]")
                    self.w(f"steps += leaf[{icache.L_STEPS}]")
                    self.w("del stack[base:]")
                    self.w("if value is not LEAF_VOID:")
                    self.w("    stack.append(value)")
                    self.w("pc += 1")
                    self.w("continue")
        return optemplates.GO_ON
    def room(self, spec) -> None:
        overflow = next(f for f in spec.faults if f.kind == "stack_overflow")
        self.guard([(overflow, "len(frames) >= max_frames", {})], [], ())

    def new_locals(self, site, callee: Callee) -> str:
        self.w(f"base = len(stack) - {site.nargs}")
        self.w("new_locals = stack[base:]")
        self.w("del stack[base:]")
        self.w("if pad:")
        self.w("    new_locals.extend(pad)")
        self.w("frame.pc = pc + 1  # return address")
        return "new_locals"

    def enter(self, site, callee: Callee) -> None:
        self._switch(callee.method, callee.views, "0")
        optemplates.take_yieldpoint(self, "PROLOGUE")
        _emit_jit_entry(self.em, "jrec.entry0", ("self.jit_entries += 1",))


#: The names a call site binds its callee's fields to, in Callee order.
_BOUND = ("callee", "callee_index", "views", "pad", "cell")


def _emit_arm_body(em: Emitter, name: str) -> None:
    """One arm: a raw opcode, an IC call or a superinstruction's
    components, every one through the evaluator; a data arm then falls
    through to the next instruction."""
    number = OPCODE_NUMBERS[name]
    if name in _F_BY_NAME:
        comps = fusion.FUSED_COMPONENTS[number]
        exprs, unpack = _operand_exprs(number)
        em(f"steps += {len(comps)}")
        if unpack:
            em(unpack)
    else:
        comps, exprs = [number], {("a", 0): "aarg[pc]", ("b", 0): "barg[pc]"}
    ctx = ArmContext(em, comps)
    for ctx.idx, comp in enumerate(comps):
        kind = optemplates.spec_and_kind(comp)[1]
        if kind == "branch" and len(ctx.vstack) > 1:
            ctx.settle()
        optemplates.emit(
            ctx, comp, exprs.get(("a", ctx.idx)), exprs.get(("b", ctx.idx)), ctx.vstack
        )
    if kind not in optemplates.CONTROL_KINDS:
        ctx.next(ctx.vstack)


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

#: A superinstruction faulted at component ``off``.  Its head charged
#: the whole group up front; the raw run never reached the trailing
#: components, so their charge and steps are given back and the fault
#: is attributed to the component's own pc — a fused fault transcript
#: is bit-identical to the raw run's.
_GROUP_FAULT = """
error, message, off = fault
for cost in costs[pc + off + 1 : pc + fusion.FUSED_ARITY[op]]:
    time -= cost
    steps -= 1
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
    whose ``else`` is the unknown-opcode exit; an arm is named by the
    one opcode it serves."""

    arms: tuple[str, ...]


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
    assert len(set(OPCODE_NUMBERS.values())) == len(OPCODE_NUMBERS), "opcode number clash"


def _weight(name: str) -> int:
    """Tree weight of an arm.  A zero count weighs 1, so a run of
    never-measured arms is split evenly, not chained without bound."""
    return max(ARM_WEIGHTS[name], 1)


def _arms(raw: bool) -> list[str]:
    """The raw+IC or the fused arms in opcode-number order."""
    return [
        name
        for name in sorted(OPCODE_NUMBERS, key=OPCODE_NUMBERS.get)
        if (OPCODE_NUMBERS[name] < fusion.FUSE_BASE) == raw
    ]


def _chain(arms) -> tuple[int, Leaf]:
    """``arms`` as one leaf, and the weighted ``op == X`` tests it costs."""
    chain = sorted(arms, key=lambda name: (-_weight(name), OPCODE_NUMBERS[name]))
    return sum(i * _weight(name) for i, name in enumerate(chain, 1)), Leaf(tuple(chain))


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
            entered = sum(_weight(name) for name in arms[lo:hi])
            for mid in range(lo + 1, hi):
                cost = entered + best[lo, mid][0] + best[mid, hi][0]
                if cost < choice[0]:
                    pivot = OPCODE_NUMBERS[arms[mid]]
                    choice = (cost, Split(pivot, best[lo, mid][1], best[mid, hi][1]))
            best[lo, hi] = choice
    return best[0, len(arms)][1]


def tree_path(node: "Split | Leaf", number: int) -> tuple[str | None, int]:
    """Walk ``node`` as the generated code does for opcode ``number``:
    the arm reached (``None`` for the unknown-opcode exit) and the
    comparisons on ``op`` spent getting there."""
    tests = 0
    while isinstance(node, Split):
        tests += 1
        node = node.below if number < node.pivot else node.above
    for name in node.arms:
        tests += 1
        if OPCODE_NUMBERS[name] == number:
            return name, tests
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
    for i, name in enumerate(node.arms):
        em(f"{'elif' if i else 'if'} op == {name if name in _F_BY_NAME else 'OP_' + name}:")
        with em.indent():
            _emit_arm_body(em, name)
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
                em("_per_pc[method][pc] += 1")
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
            em("# A tree leaf's ``else: break`` (no arm owns ``op``), or a")
            em("# superinstruction's guest fault.")
            em("if op < FUSE_BASE:")
            with em.indent():
                _spec_raise(em, _UNKNOWN_OPCODE)
            em("if fault is None:")
            with em.indent():
                _spec_raise(em, _UNKNOWN_SUPER)
            em.raw(_GROUP_FAULT)
            _fault_raise(em, "error", "message", "pc + off")
        em("self.time = time")
        em("self.steps = steps")
        em("self.call_count = call_count")
        em("self.fused_dispatches = fused_n")
        em("self.fusion_deopts = deopts")
        em("return result")


def generate_source(*, counting: bool = False) -> str:
    """The text of :mod:`repro.vm._dispatch`.  ``counting`` adds the two
    lines ``--measure`` counts dispatches with, per opcode and per pc;
    that variant is exec'd from memory and never written anywhere."""
    _check_coverage()
    em = Emitter()
    em.raw(_MODULE_DOC)
    em()
    em.raw(_MODULE_IMPORTS)
    em()
    em()
    _emit_loop(em, counting)
    return "\n".join(em.lines).rstrip("\n") + "\n"


# -- measuring the weights and the windows ---------------------------------------


class _PerPc(dict):
    """CompiledMethod -> its dispatch count per pc, made on first use."""

    def __missing__(self, method):
        counts = self[method] = [0] * len(method.ops)
        return counts


def _count_benchsuite():
    """Per benchsuite program: the dispatches of each opcode, and for each
    placement run (:func:`repro.vm.fuse.runs`) the program dispatched, its
    raw dispatch count per pc.  Runs with the same opcodes (and the same
    zero immediates, which the fuser's divisor guard reads) are merged:
    ``(ops, zeros) -> [a operands, counts]``.

    All 13 programs at ``tiny``, each three ways — plain
    ``jikes_config()``, hooked as the harness's table cells are
    (exhaustive + CBS(3, 16) on level-0 code) and the profile-optimised
    rerun (``NewJikesInliner`` plans from that CBS profile) — on a
    counting copy of the generated loop, with fusion off: the counts are
    the raw stream's, whatever table is committed."""
    from repro.adaptive.modes import jit_only_cache
    from repro.benchsuite import benchmark_names, program_for
    from repro.inlining.new_inliner import NewJikesInliner
    from repro.opt.pipeline import optimize_function
    from repro.profiling.cbs import CBSProfiler
    from repro.profiling.exhaustive import ExhaustiveProfiler
    from repro.vm import interpreter
    from repro.vm.config import jikes_config

    hist = [0] * 256
    per_pc = _PerPc()
    namespace: dict = {}
    exec(compile(generate_source(counting=True), "<dispatchgen --measure>", "exec"), namespace)
    namespace.update(
        Frame=interpreter.Frame,
        _FREED_LOCALS=interpreter._FREED_LOCALS,
        _hist=hist,
        _per_pc=per_pc,
    )
    config = jikes_config(fuse=False)

    def counted(program, cache=None):
        vm = interpreter.Interpreter(program, config, cache)
        vm._loop = namespace["_loop"].__get__(vm)
        return vm

    def level0(program):
        return jit_only_cache(program, config.cost_model, level=0, fuse=False)

    programs = []
    for bench in benchmark_names():
        program = program_for(bench, "tiny")
        hist[:] = [0] * len(hist)
        per_pc.clear()
        counted(program).run()
        hooked = counted(program, level0(program))
        ExhaustiveProfiler().install(hooked)
        cbs = CBSProfiler(stride=3, samples_per_tick=16)
        hooked.attach_profiler(cbs)
        hooked.run()
        rerun = counted(program, level0(program))
        policy = NewJikesInliner(program)
        for function in program.functions:
            plan = policy.plan_for(function.index, cbs.dcg)
            if not plan.is_empty():
                rerun.code_cache.install(optimize_function(program, plan).function, 2)
        rerun.run()
        runs: dict = {}
        for method, counts in per_pc.items():
            ops, a = method.ops, method.a
            for start, end in fusion.runs(method.code):
                if end - start < 2 or not counts[start]:
                    continue  # only the head leads into a run
                zeros = tuple(
                    pc - start
                    for pc in range(start, end)
                    if ops[pc] == Op.PUSH and a[pc] == 0
                )
                merged = runs.setdefault(
                    (tuple(ops[start:end]), zeros), [a[start:end], [0] * (end - start)]
                )
                merged[1] = [x + y for x, y in zip(merged[1], counts[start:end])]
        programs.append((list(hist), runs))
    return programs


def _walk(trie, a, ops, counts, pc=0, extra=(), wide=0):
    """The matcher's walk over one run from ``pc`` (what
    :func:`repro.vm.fuse.groups` does, plus a window of width ``wide``
    that matches at the pcs in ``extra``): the saving of each group it
    forms, in order, and each pc it stops at -> ``(groups formed before,
    width matched there)``, width 1 where none matched."""
    gains: list = []
    stops: dict = {}
    end = len(ops)
    while pc < end:
        found = fusion.match(trie, ops, a, pc, end)
        width = 1 if found is None else found[1] - pc
        if wide > width and pc in extra:
            width = wide
        stops[pc] = (len(gains), width)
        if width > 1:
            gains.append(sum(counts[pc : pc + width]) - counts[pc])
        pc += width
    return gains, stops


def _choose_windows(programs) -> dict[tuple[int, ...], int]:
    """Greedy: each round, the fusion-legal window of two to
    ``MAX_WIDTH`` ops that saves the most dispatches when
    :func:`repro.vm.fuse.groups` runs over the counts with it added to
    those already chosen (each program's counts scaled by its total, so
    every program weighs the same); stop at ``MAX_WINDOWS`` or below
    ``MIN_SAVING_PPM``.  Window -> its saving in parts per million of
    all unfused dispatches."""
    runs: dict = {}
    for hist, program_runs in programs:
        scale = 1_000_000 / (sum(hist) * len(programs))
        for key, (a, counts) in program_runs.items():
            merged = runs.setdefault(key, [a, [0.0] * len(counts)])
            merged[1] = [x + y * scale for x, y in zip(merged[1], counts)]
    where: dict = {}  # window -> run -> the pcs the matcher may form it at
    for key in runs:
        ops = key[0]
        for width in range(2, fusion.MAX_WIDTH + 1):
            for pc in range(len(ops) - width + 1):
                where.setdefault(ops[pc : pc + width], {}).setdefault(key, []).append(pc)
    within: dict = {}  # run -> the windows occurring in it
    for window, keys in where.items():
        divisors = fusion.divisor_pushes(window)
        for key, at in keys.items():
            a = runs[key][0]
            at[:] = [pc for pc in at if all(a[pc + i] != 0 for i in divisors)]
            within.setdefault(key, []).append(window)

    # A window's gain is the sum of what it adds on each run it occurs in;
    # choosing one changes only the runs it occurs in, so only the
    # windows sharing one of those are re-evaluated, and only there.  The
    # matcher's walk with the chosen windows is kept per run: a candidate
    # changes it only from the first pc the walk stops at where the
    # candidate matches wider, so only the rest is walked again.
    chosen: dict[tuple[int, ...], int] = {}
    trie = fusion.index(chosen)
    walks = {key: _walk(trie, runs[key][0], key[0], runs[key][1]) for key in runs}

    def added(window, key):
        """What ``window`` adds to the chosen windows' saving on run ``key``."""
        gains, stops = walks[key]
        at = where[window][key]
        for pc in at:
            if pc in stops and stops[pc][1] < len(window):
                a, counts = runs[key]
                rest, _stops = _walk(trie, a, key[0], counts, pc, at, len(window))
                return sum(gains[: stops[pc][0]] + rest) - sum(gains)
        return 0.0

    adds = {(window, key): added(window, key) for window, keys in where.items() for key in keys}
    gain = {window: sum(adds[window, key] for key in keys) for window, keys in where.items()}
    while gain and len(chosen) < fusion.MAX_WINDOWS:
        best = max(gain, key=lambda window: (round(gain[window]), window))
        if round(gain[best]) < fusion.MIN_SAVING_PPM:
            break
        chosen[best] = round(gain.pop(best))
        trie = fusion.index(chosen)
        touched = set()
        for key in where[best]:
            walks[key] = _walk(trie, runs[key][0], key[0], runs[key][1])
            for window in within[key]:
                if window in gain:
                    adds[window, key] = added(window, key)
                    touched.add(window)
        for window in touched:
            gain[window] = sum(adds[window, key] for key in where[window])
    return chosen


def measure_weights() -> tuple[dict[str, int], dict[tuple[str, ...], int], list[str]]:
    """Count dispatches over the benchsuite, choose the superinstruction
    windows from the counts and return the tables to commit —
    :data:`ARM_WEIGHTS` and :data:`repro.vm.fuse.WINDOWS` — plus the arms
    nothing ran.

    The weights are the chosen table's: the raw counts with every group
    the matcher forms counted once, as its superinstruction, in parts per
    million of each program's dispatches, averaged over the programs.
    """
    programs = _count_benchsuite()
    windows = _choose_windows(programs)
    trie = fusion.index(windows)
    raw = sorted(
        (name for name, number in OPCODE_NUMBERS.items() if number < fusion.FUSE_BASE),
        key=OPCODE_NUMBERS.get,
    )
    fused = [arm_name(window) for window in windows]
    share = dict.fromkeys([*raw, *fused], 0.0)
    for hist, runs in programs:
        counts = {name: hist[OPCODE_NUMBERS[name]] for name in raw}
        counts.update(dict.fromkeys(fused, 0))
        for (ops, _zeros), (a, per_pc) in runs.items():
            for head, fid, stop in fusion.groups(trie, ops, a, 0, len(ops)):
                for pc in range(head, stop):
                    counts[Op(ops[pc]).name] -= per_pc[pc]
                counts[fused[fid - fusion.FUSE_BASE]] += per_pc[head]
        total = sum(counts.values())
        for name, count in counts.items():
            share[name] += count / total
    weights = {name: round(1_000_000 * s / len(programs)) for name, s in share.items()}
    table = {tuple(Op(op).name for op in window): ppm for window, ppm in windows.items()}
    return weights, table, [name for name, s in share.items() if s == 0]


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
        help="count dispatches over the benchsuite and print the superinstruction "
        "windows and ARM_WEIGHTS they imply",
    )
    args = parser.parse_args(argv)
    if args.measure:
        weights, windows, never = measure_weights()
        print("# repro/vm/fuse.py")
        print("WINDOWS = {")
        for window, ppm in windows.items():
            names = ", ".join(f'"{name}"' for name in window)
            print(f"    ({names}): {ppm},")
        print("}")
        print("# repro/vm/dispatchgen.py")
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
