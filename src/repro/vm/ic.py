"""Polymorphic inline caches for the dispatch loop.

Every ``CALL_VIRTUAL`` site gets a small per-site cache, created lazily
the first time the site executes and stored in the method's ``ics``
array (parallel to the fused views).  The interpreter *quickens* the
site — rewrites ``fops[pc]`` to :data:`OP_IC_CALL_VIRTUAL` — so later
executions dispatch through the cache:

* **monomorphic / 2-way fast path** — two receiver-class slots are
  inlined in the hot loop (an int compare each; measurement on the
  jess workload showed a fixed two-slot cache catches >90% of calls
  at its polymorphic sites, and an MRU scheme thrashes),
* **bounded polymorphic array** — up to :data:`POLY_LIMIT` distinct
  receiver classes are bound to an overflow list searched linearly,
* **megamorphic fallback** — past the limit the site stops binding and
  resolves through the program's flat selector-indexed dispatch tables
  (dense ``list[int]`` per class, see
  :meth:`repro.bytecode.program.Program.flat_dispatch_tables`) instead
  of the dict vtables.

``CALL_STATIC`` is quickened too (the call target is constant), and a
cache entry carries the callee's prebuilt ``views`` tuple, so an
inline-cached call switches frames with one unpack instead of eight
attribute loads (returns restore the caller's the same way, cached or
not: every method carries the tuple).

All of this is **host-level only**.  Virtual time still charges
``call_virtual_cost`` per dispatch, steps/ticks/yieldpoints/DCG
weights/telemetry events are bit-identical with ICs on or off (the
same contract superinstruction fusion obeys; see
tests/vm/test_ic_identity.py).

As a by-product each cache counts calls per receiver class in shared
cells keyed by *baseline* coordinates, surviving recompilation — an
exact receiver-type profile (:class:`repro.profiling.receivers.
ReceiverProfile`) that the figure-5 accuracy harness scores CBS
against.

Quickened opcode numbering: raw opcodes stop at 81 (``Op.NOP``) and
superinstructions start at ``FUSE_BASE`` (100); inline caches take the
90s in between so one integer range check in the loop keeps all three
families apart.
"""

from __future__ import annotations

from repro.bytecode.opcodes import SPEC_BY_OP, Op
from repro.vm import optemplates
from repro.vm.fuse import FUSE_BASE

#: Base of the inline-cache quickened opcode range.
IC_BASE = 90

OP_IC_CALL_VIRTUAL = 90
OP_IC_CALL_STATIC = 91

assert max(int(op) for op in Op) < IC_BASE < IC_BASE + 2 <= FUSE_BASE

#: Maximum distinct receiver classes a site binds before it goes
#: megamorphic (2 inline slots + POLY_LIMIT - 2 overflow entries).
POLY_LIMIT = 8

#: ``state`` sentinel for a megamorphic site (> any bound-class count).
MEGAMORPHIC = POLY_LIMIT + 1

# -- virtual-call cache entry layout -------------------------------------------
#
# A virtual entry is a flat mutable list so the interpreter fast path
# is pure indexing; the two inline class slots use -1 for "empty"
# (real class indices are >= 0).  ``rest`` holds overflow bindings as
# [class, method, index, views, pad, cell] lists.  ``cells`` is the
# per-site {class_index: [count]} dict shared with
# ``CodeCache.receiver_cells`` (and therefore with every compiled
# version of the site), which is what makes the receiver profile exact
# across recompilation.

V_NARGS = 0
V_CLASS0 = 1
V_METHOD0 = 2
V_INDEX0 = 3
V_VIEWS0 = 4
V_PAD0 = 5
V_CELL0 = 6
V_CLASS1 = 7
V_METHOD1 = 8
V_INDEX1 = 9
V_VIEWS1 = 10
V_PAD1 = 11
V_CELL1 = 12
V_REST = 13
V_SELECTOR = 14
V_STATE = 15
V_CELLS = 16
V_SITE = 17

# -- static-call cache entry layout --------------------------------------------

S_METHOD = 0
S_INDEX = 1
S_VIEWS = 2
S_PAD = 3
S_NARGS = 4


def locals_pad(num_locals: int, nargs: int) -> tuple:
    """Zero-fill tuple extending ``nargs`` arguments to a frame's locals."""
    return (0,) * (num_locals - nargs) if num_locals > nargs else ()


def new_virtual_entry(nargs: int, selector: int, cells: dict, site: tuple) -> list:
    """An empty virtual-call cache entry (both inline slots free)."""
    return [
        nargs,
        -1, None, -1, None, (), None,
        -1, None, -1, None, (), None,
        None,
        selector,
        0,
        cells,
        site,
    ]


def new_static_entry(method, nargs: int) -> list:
    """A static-call cache entry (target is constant)."""
    return [
        method,
        method.index,
        method.views,
        locals_pad(method.num_locals, nargs),
        nargs,
    ]


def entry_is_virtual(entry: list) -> bool:
    return len(entry) > S_NARGS + 1


def guard_classes(entry: list):
    """Inline-slot guards for the template JIT: ``(class_index,
    method_slot, cell)`` per bound inline slot, hottest class first by
    the cells' counts at the time of the call (bind order on a tie).

    Only the two inline slots export guards.  Overflow-bound and
    megamorphic receivers are looked up at run time, after the guards,
    by the miss path of the ``ic_call_virtual`` template
    (repro.vm.optemplates) at a site that has any (``entry[V_STATE] >=
    3``); a class the site has yet to bind takes the guard-miss exit and
    replays through the
    interpreter's bind slow path, which owns state promotion.  The
    class index is baked into generated code as a constant and the cell
    preloaded; the method is re-read through ``entry[method_slot]`` so
    in-place recompiles stay visible."""
    guards = []
    if entry[V_CLASS0] >= 0:
        guards.append((entry[V_CLASS0], V_METHOD0, entry[V_CELL0]))
    if entry[V_CLASS1] >= 0:
        guards.append((entry[V_CLASS1], V_METHOD1, entry[V_CELL1]))
    guards.sort(key=lambda guard: -guard[2][0])
    return guards


# -- leaf-method calling sequence ----------------------------------------------
#
# The expensive part of an interpreted call is not the dispatch but the
# calling sequence: frame allocation, argument shuffling, and the view
# switch.  Real VMs point their inline caches at specialized entry
# stubs for accessor-like methods (HotSpot's fast entries); the
# equivalent here is a *leaf template* — a small jump-free body compiled
# once into a host closure the IC arms call without materializing a
# frame.
#
# Eligibility is decided once per CompiledMethod by ``analyze_leaf``:
# every opcode must be leaf-eligible in repro.vm.optemplates (no jump,
# so no backedge yieldpoints and no step-limit checks inside the body,
# matching the raw execution) and the body must end in a return.
# Branching accessors take the generic calling sequence and, once hot,
# are promoted like any other method.  The IC arms first charge the
# call and notify the hooks (call observer, telemetry) — so a hooked run
# keeps this tier and an observer's own charge is already on the clock —
# and only then pick it, requiring: yieldpoint flag clear, no timer
# tick inside the body's cost, and stack headroom; otherwise they fall
# through to the generic calling sequence.  A closure
# changes nothing before its last fault guard has passed (heap writes
# are deferred), so a potential fault (null field access, division by
# zero) just re-executes the call generically, which re-raises with the
# exact frame state the raw interpreter would have had.

#: Sentinel distinguishing a void return from returning ``None``
#: (``PUSH_NULL; RETURN_VAL`` must still push).
LEAF_VOID = object()

#: Sentinel a compiled leaf returns on a would-be fault (the caller
#: falls back to the generic calling sequence, which re-faults with a
#: real frame).  Distinct from LEAF_VOID and from any guest value.
LEAF_FAIL = object()

#: Bodies longer than this are cheaper through the generic path anyway.
LEAF_MAX_OPS = 24

#: Template slots: constant virtual-time cost of the executed prefix
#: (through the first return, ``return_cost`` included), the opcodes and
#: ``a`` operands before that return, locals count, the host closure,
#: and the prefix's step count (return included).
L_COST = 0
L_OPS = 1
L_A = 2
L_NUM_LOCALS = 3
L_FN = 4
L_STEPS = 5


class _LeafClosure(optemplates.EmitContext):
    """Emit context of a leaf closure: locals are ``aN`` (arguments
    read in place off the caller's stack), a fault precondition returns
    ``FAIL`` before any state change, and heap writes wait for the
    return so they land after the last guard."""

    local_prefix = "a"

    def __init__(self):
        self.lines: list[str] = []
        self.writes: list[str] = []
        self.used: set[int] = set()
        self.tmp = 0

    def w(self, line):
        self.lines.append("    " + line)

    def new_tmp(self):
        self.tmp += 1
        return f"t{self.tmp - 1}"

    def fault(self, cond, vstack, operands):
        self.w(f"if {cond}: return FAIL")

    def load(self, slot):
        self.used.add(slot)
        return super().load(slot)

    def store(self, slot, value, vstack):
        self.used.add(slot)
        super().store(slot, value, vstack)

    def heap_write(self, fmt, *atoms):
        # A later STORE must not change what a deferred write denotes.
        stable = [self.pin_force(atom) if atom.deps else atom for atom in atoms]
        self.writes.append(fmt.format(*(atom.expr for atom in stable)))


def analyze_leaf(
    ops: list[int],
    a: list,
    costs: list[int],
    num_locals: int,
    nargs: int,
    return_cost: int,
) -> tuple | None:
    """Build a leaf template for a method body, or None if ineligible.

    ``nargs`` is the declared parameter count (receiver included for
    virtual methods).  The closure reads its arguments in place on the
    caller's stack (``stack[base + i]``) and returns the result value,
    :data:`LEAF_VOID` for a void return, or :data:`LEAF_FAIL` before
    any state change when the body would fault.  A body that reads a
    field it previously wrote is rejected: the deferred write would be
    invisible to the read.
    """
    n = len(ops)
    if n == 0 or n > LEAF_MAX_OPS or ops[-1] not in optemplates.RETURN_OPS:
        return None
    if not optemplates.LEAF_OPS.issuperset(
        op for op in ops if op not in optemplates.RETURN_OPS
    ):
        return None
    end = next(pc for pc, op in enumerate(ops) if op in optemplates.RETURN_OPS)

    ctx = _LeafClosure()
    vstack: list = []
    written: set = set()
    for pc in range(end):
        kind = SPEC_BY_OP[ops[pc]].kind
        if kind == "putfield":
            written.add(a[pc])
        elif kind == "getfield" and a[pc] in written:
            return None
        optemplates.emit(ctx, ops[pc], a[pc], None, vstack)
    returns_value = SPEC_BY_OP[ops[end]].arg == "value"
    result = vstack.pop().expr if returns_value else "VOID"
    preamble = [
        f"    a{i} = stack[base + {i}]" if i < nargs else f"    a{i} = 0"
        for i in sorted(ctx.used)
    ]
    source = "\n".join(
        [
            "def _leaf(stack, base,"
            " FAIL=FAIL, VOID=VOID, isinstance=isinstance, abs=abs):",
            *preamble,
            *ctx.lines,
            *("    " + write for write in ctx.writes),
            f"    return {result}",
            "",
        ]
    )
    namespace = {"FAIL": LEAF_FAIL, "VOID": LEAF_VOID}
    exec(source, namespace)  # noqa: S102 — host-level template quickening
    fn = namespace["_leaf"]
    fn.__doc__ = source
    return (
        sum(costs[: end + 1]) + return_cost,
        ops[:end],
        a[:end],
        num_locals,
        fn,
        end + 1,
    )
