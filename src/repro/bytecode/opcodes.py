"""The Mini VM instruction set, as declarative per-opcode specs.

The VM is a classic stack machine in the JVM mould.  Opcode operands are
held in the :class:`~repro.bytecode.instr.Instr` record, not encoded in a
byte stream; the "size in bytes" of a method used by size-based inlining
heuristics is derived from :data:`OPCODE_SIZE` below.

Every structural fact about an opcode lives in exactly one place: its
:class:`OpSpec` row in :data:`OPCODE_SPECS`.  The spec declares the
stack effect (pops/pushes), the abstract encoded size, the semantic
*kind* that drives code generation, the fault modes (exception class,
message, and the counter-sync obligation every raise site carries), the
inline-cache quickening class, and where the step-limit budget must
bind.  Consumers:

* the interpreter's dispatch loop is *generated* from these specs
  (:mod:`repro.vm.dispatchgen` writes :mod:`repro.vm._dispatch`),
* the verifier derives its pop counts and stack effects here instead of
  keeping a second hand-written table,
* the template JIT derives its depth-analysis effects here, and every
  data opcode it or the inline caches' leaf closures turn into host text
  goes through one evaluator keyed by ``kind``/``arg``/``faults``
  (:mod:`repro.vm.optemplates`; control kinds stay with their consumer),
* the superinstruction fuser derives its placement rule and each
  window's operand layout and zero-divisor guard here,
* the disassembler's ``--spec`` view prints the rows next to the
  stream, and the fuzzer's spec-conformance cell replays programs on a
  reference executor built from nothing but this table.

Editing a handler without editing the spec (or vice versa) is caught by
``tests/vm/test_dispatch_tree.py`` (regeneration must be a no-op) and by
the differential fuzz matrix (observable behavior must stay
bit-identical).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Op(enum.IntEnum):
    """Every opcode executed by the interpreter."""

    # Constants and stack shuffling
    PUSH = 1          # a = int immediate
    PUSH_NULL = 2
    POP = 3
    DUP = 4

    # Locals
    LOAD = 10         # a = slot
    STORE = 11        # a = slot

    # Integer arithmetic
    ADD = 20
    SUB = 21
    MUL = 22
    DIV = 23
    MOD = 24
    NEG = 25

    # Boolean / comparison
    NOT = 30
    LT = 31
    LE = 32
    GT = 33
    GE = 34
    EQ = 35
    NE = 36

    # Control flow (a = target pc)
    JUMP = 40
    JUMP_IF_FALSE = 41
    JUMP_IF_TRUE = 42

    # Calls and returns
    CALL_STATIC = 50  # a = function index, b = argc
    CALL_VIRTUAL = 51  # a = selector id, b = argc (receiver below args)
    RETURN = 52
    RETURN_VAL = 53

    # Objects
    NEW = 60          # a = class id
    GETFIELD = 61     # a = field offset
    PUTFIELD = 62     # a = field offset
    IS_EXACT = 63     # a = class id; pops object, pushes bool (inline guard)
    GUARD_METHOD = 64  # a = selector id, b = expected function index;
    #                    pops receiver, pushes bool (method-test guard)

    # Arrays
    NEW_ARRAY = 70
    ALOAD = 71
    ASTORE = 72
    ARRAY_LEN = 73

    # Misc
    PRINT = 80
    NOP = 81


#: Loop-local counters every fault raise site must write back to the VM
#: before the error propagates, so the failure transcript is exact (the
#: error-parity invariant the differential fuzzer gates).  ``frame.pc``
#: rides along with them.  This is *the* single statement of the
#: invariant: the generated dispatch loop funnels every fault through
#: ``Interpreter._fault`` / ``Interpreter._step_limit``, which sync
#: exactly this set.
FAULT_SYNCED_COUNTERS = (
    "time",
    "steps",
    "call_count",
    "fused_dispatches",
    "fusion_deopts",
    "frame.pc",
)


@dataclass(frozen=True)
class FaultSpec:
    """One way an opcode can raise a guest fault.

    ``pc_offset`` only matters inside superinstructions: it names which
    component (by offset from the group head) the fault is attributed
    to, so a fused fault carries the same pc as the raw run's.  Every
    fault site syncs :data:`FAULT_SYNCED_COUNTERS` — there are no
    partial-sync fault modes.
    """

    kind: str     # "null" | "div_zero" | "bounds" | "negative_length"
    #             # | "stack_overflow" | "missing_selector"
    error: str    # exception class name in repro.vm.errors
    message: str  # literal message, or a template for dynamic messages


@dataclass(frozen=True)
class OpSpec:
    """Everything the toolchain knows about one opcode."""

    op: Op
    #: Abstract encoded size in bytes (inlining heuristics input).
    size: int
    #: Operand-stack slots consumed / produced.  ``None`` when the
    #: count depends on the instruction's operands (calls).
    pops: int | None
    pushes: int | None
    #: Semantic family driving dispatch-arm generation (see
    #: repro.vm.dispatchgen for the family templates).
    kind: str
    #: Family parameter: the operator for binop/cmp kinds, the flavor
    #: for divmod/branch/call/return kinds.
    arg: str | None = None
    #: Guest fault modes, in the order the handler checks them.
    faults: tuple = ()
    #: Inline-cache quickening class: the interpreter rewrites the
    #: site's ``fops`` slot to the matching IC opcode.
    quicken: str | None = None  # "call_virtual" | "call_static"
    #: Where the instruction-budget check must bind even when no timer
    #: fires: "backward" (taken backward branch) or "call".
    step_limit: str | None = None
    #: Yieldpoint site class in the Jikes scheme.
    yieldpoint: str | None = None  # "backedge" | "prologue" | "epilogue"
    #: Extra virtual-time charge computed at run time (expression over
    #: the handler's locals), e.g. allocation cost scaling with length.
    dyn_cost: str | None = None


_NULL = FaultSpec("null", "NullPointerError", "")
_BOUNDS = FaultSpec(
    "bounds", "ArrayBoundsError", "index {index} out of bounds (len={length})"
)


def _null(message: str) -> FaultSpec:
    return FaultSpec("null", "NullPointerError", message)


#: The instruction set, one row per opcode.  Order is the enum order;
#: how the interpreter finds an arm (a comparison tree over the opcode
#: numbers, laid out from measured counts) is a generator concern, not
#: a spec concern (see repro.vm.dispatchgen.ARM_WEIGHTS / build_tree).
OPCODE_SPECS: tuple[OpSpec, ...] = (
    OpSpec(Op.PUSH, 2, 0, 1, "push_const"),
    OpSpec(Op.PUSH_NULL, 1, 0, 1, "push_null"),
    OpSpec(Op.POP, 1, 1, 0, "pop"),
    OpSpec(Op.DUP, 1, 1, 2, "dup"),
    OpSpec(Op.LOAD, 2, 0, 1, "load"),
    OpSpec(Op.STORE, 2, 1, 0, "store"),
    OpSpec(Op.ADD, 1, 2, 1, "binop", "+"),
    OpSpec(Op.SUB, 1, 2, 1, "binop", "-"),
    OpSpec(Op.MUL, 1, 2, 1, "binop", "*"),
    OpSpec(
        Op.DIV, 1, 2, 1, "divmod", "div",
        faults=(FaultSpec("div_zero", "DivisionByZeroError", "division by zero"),),
    ),
    OpSpec(
        Op.MOD, 1, 2, 1, "divmod", "mod",
        faults=(FaultSpec("div_zero", "DivisionByZeroError", "division by zero"),),
    ),
    OpSpec(Op.NEG, 1, 1, 1, "neg"),
    OpSpec(Op.NOT, 1, 1, 1, "not"),
    OpSpec(Op.LT, 1, 2, 1, "cmp", "<"),
    OpSpec(Op.LE, 1, 2, 1, "cmp", "<="),
    OpSpec(Op.GT, 1, 2, 1, "cmp", ">"),
    OpSpec(Op.GE, 1, 2, 1, "cmp", ">="),
    OpSpec(Op.EQ, 1, 2, 1, "eqcmp", "=="),
    OpSpec(Op.NE, 1, 2, 1, "eqcmp", "!="),
    OpSpec(
        Op.JUMP, 3, 0, 0, "jump",
        step_limit="backward", yieldpoint="backedge",
    ),
    OpSpec(
        Op.JUMP_IF_FALSE, 3, 1, 0, "branch", "false",
        step_limit="backward",
    ),
    OpSpec(Op.JUMP_IF_TRUE, 3, 1, 0, "branch", "true", step_limit="backward"),
    OpSpec(
        Op.CALL_STATIC, 3, None, None, "call", "static",
        faults=(
            FaultSpec(
                "stack_overflow",
                "StackOverflowError_",
                "guest stack exceeded {max_frames} frames",
            ),
        ),
        quicken="call_static", step_limit="call", yieldpoint="prologue",
    ),
    OpSpec(
        Op.CALL_VIRTUAL, 3, None, None, "call", "virtual",
        faults=(
            _null("virtual call on null"),
            FaultSpec(
                "missing_selector",
                "VMError",
                "class {cls!r} does not understand {name}/{argc}",
            ),
            FaultSpec(
                "stack_overflow",
                "StackOverflowError_",
                "guest stack exceeded {max_frames} frames",
            ),
        ),
        quicken="call_virtual", step_limit="call", yieldpoint="prologue",
    ),
    OpSpec(Op.RETURN, 1, 0, 0, "return", "void", yieldpoint="epilogue"),
    OpSpec(Op.RETURN_VAL, 1, 1, 0, "return", "value", yieldpoint="epilogue"),
    OpSpec(Op.NEW, 3, 0, 1, "new"),
    OpSpec(Op.GETFIELD, 3, 1, 1, "getfield",
           faults=(_null("field read on null"),)),
    OpSpec(Op.PUTFIELD, 3, 2, 0, "putfield",
           faults=(_null("field write on null"),)),
    OpSpec(Op.IS_EXACT, 3, 1, 1, "is_exact"),
    OpSpec(Op.GUARD_METHOD, 4, 1, 1, "guard_method"),
    OpSpec(
        Op.NEW_ARRAY, 1, 1, 1, "new_array",
        faults=(FaultSpec("negative_length", "VMError", "negative array length"),),
        dyn_cost="length",  # allocation cost scales with the array size
    ),
    OpSpec(
        Op.ALOAD, 1, 2, 1, "aload",
        faults=(_null("array read on null"), _BOUNDS),
    ),
    OpSpec(
        Op.ASTORE, 1, 3, 0, "astore",
        faults=(_null("array write on null"), _BOUNDS),
    ),
    OpSpec(Op.ARRAY_LEN, 1, 1, 1, "array_len",
           faults=(_null("len() of null"),)),
    OpSpec(Op.PRINT, 1, 1, 0, "print"),
    OpSpec(Op.NOP, 1, 0, 0, "nop"),
)

#: op -> its spec row (also accepts plain ints).
SPEC_BY_OP: dict[Op, OpSpec] = {spec.op: spec for spec in OPCODE_SPECS}

if len(SPEC_BY_OP) != len(list(Op)):  # pragma: no cover - table typo
    _missing = set(Op) - set(SPEC_BY_OP)
    raise AssertionError(f"opcodes without specs: {sorted(_missing)}")


def spec_of(op) -> OpSpec:
    """The spec row for ``op`` (an :class:`Op` or a plain int)."""
    return SPEC_BY_OP[Op(op)]


# -- derived tables (the legacy exported names; all spec-computed) ------------

#: Branching opcodes whose ``a`` operand is a bytecode index.
JUMP_OPS = frozenset(
    spec.op for spec in OPCODE_SPECS if spec.kind in ("jump", "branch")
)


def jump_targets(code) -> set[int]:
    """The set of pcs that are targets of some jump in ``code``.

    Shared by the optimizer passes (which must not rewrite across basic-
    block boundaries) and the superinstruction fuser (which must not fuse
    a group whose interior a jump could land in).
    """
    return {instr.a for instr in code if instr.op in JUMP_OPS}


#: Opcodes that unconditionally transfer control away (no fall-through).
TERMINATOR_OPS = frozenset(
    spec.op
    for spec in OPCODE_SPECS
    if spec.kind in ("jump", "return")
)

#: Call opcodes (the DCG profilers care about these).
CALL_OPS = frozenset(spec.op for spec in OPCODE_SPECS if spec.kind == "call")

#: Abstract encoded size of each opcode in bytes, used for the "method
#: size" input to inlining heuristics (operand-carrying ops cost more,
#: mirroring JVM bytecode widths).
OPCODE_SIZE: dict[Op, int] = {spec.op: spec.size for spec in OPCODE_SPECS}

#: Net operand-stack effect of each opcode, ``None`` when it depends on
#: the operands (calls) — the verifier special-cases those.
STACK_EFFECT: dict[Op, int | None] = {
    spec.op: (
        None if spec.pops is None else spec.pushes - spec.pops
    )
    for spec in OPCODE_SPECS
}

#: Operand-stack slots each opcode consumes before pushing its results;
#: ``None`` for calls (argc-dependent).  The verifier's "depth never
#: negative" check reads this.
POPS: dict[Op, int | None] = {spec.op: spec.pops for spec in OPCODE_SPECS}
