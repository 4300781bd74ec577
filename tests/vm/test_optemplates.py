"""The host-text evaluator against the spec executor, one opcode at a time.

:mod:`repro.vm.optemplates` is the only place a data opcode becomes host
Python text.  Every data row of ``OPCODE_SPECS`` is run here as the one
op under test of a *method body* (a non-leaf callee the forced JIT
compiles: the ``_Compiler`` context) and, where the row is leaf-eligible,
of a *leaf body* (the IC's closure context, and under the forced JIT the
call-site expansion or closure call in ``main``), under no-ic, ic and
jit, and compared with :mod:`repro.fuzz.specexec` on output, virtual
time, steps, ticks, calls and the fault tuple.  Every fault mode a row
lists is reached on the *third* call, after the site has quickened and
the generated code is installed, so the fault goes through the
evaluator's precondition rather than the interpreter's cold path.
"""

from __future__ import annotations

import pytest

from repro.bytecode.assembler import assemble
from repro.bytecode.opcodes import OPCODE_SPECS, Op
from repro.fuzz.specexec import run_spec_reference
from repro.vm import optemplates
from repro.vm.config import config_named
from tests.helpers import force_jit, run_transcript

# main's locals: 0 = a Point with x == 5, 1 = a 3-element array with
# [1] == 40, 2 = the call counter (0, 1, 2), 3 = int x (7), 4 = int y (2).
OBJ, ARR, COUNTER, X, Y = (f"LOAD {slot}" for slot in range(5))

#: Late mutations of main's locals, applied just before the third call.
LATE = {
    "null": ["PUSH_NULL", "STORE 0", "PUSH_NULL", "STORE 1"],
    "div_zero": ["PUSH 0", "STORE 4"],
    "negative_length": ["PUSH -1", "STORE 4"],
    "bounds": ["PUSH 3", "STORE 4"],
    "bounds_negative": ["PUSH -1", "STORE 4"],
}

#: op -> (body leaving the result on the stack, scenarios); a scenario is
#: (id, argument pushes in main, late mutation or None).  The body reads
#: its operands from the subject's parameters.
BINARY = ["LOAD 0", "LOAD 1"]
CASES: dict[Op, tuple[list[str], list[tuple]]] = {
    Op.PUSH: (["PUSH 7"], [("const", [], None)]),
    Op.PUSH_NULL: (["PUSH_NULL"], [("null", [], None)]),
    Op.POP: (["LOAD 0", "PUSH 9", "POP"], [("int", [X], None)]),
    Op.DUP: (["LOAD 0", "DUP", "ADD"], [("int", [X], None)]),
    Op.LOAD: (["LOAD 0"], [("int", [X], None)]),
    # The first LOAD is still on the symbolic stack when its slot is
    # overwritten: x - y, not y - y.
    Op.STORE: (
        ["LOAD 0", "LOAD 1", "STORE 0", "LOAD 0", "SUB"],
        [("pins", [X, Y], None)],
    ),
    Op.NEG: (["LOAD 0", "NEG"], [("int", [X], None)]),
    Op.NOT: (["LOAD 0", "NOT"], [("counter", [COUNTER], None)]),
    Op.NEW: (["NEW Point", "GETFIELD 0"], [("fresh", [], None)]),
    Op.GETFIELD: (["LOAD 0", "GETFIELD 0"], [("obj", [OBJ], None), ("null", [OBJ], "null")]),
    Op.PUTFIELD: (
        ["LOAD 0", "LOAD 1", "PUTFIELD 0"],
        [("obj", [OBJ, COUNTER], None), ("null", [OBJ, COUNTER], "null")],
    ),
    Op.IS_EXACT: (
        ["LOAD 0", "IS_EXACT Point"],
        [("exact", [OBJ], None), ("null", ["PUSH_NULL"], None), ("goes-null", [OBJ], "null")],
    ),
    Op.GUARD_METHOD: (
        ["LOAD 0", "GUARD_METHOD getX 0 Point.getX"],
        [("hit", [OBJ], None), ("goes-null", [OBJ], "null")],
    ),
    Op.NEW_ARRAY: (
        ["LOAD 0", "NEW_ARRAY", "ARRAY_LEN"],
        [("sized", [Y], None), ("negative", [Y], "negative_length")],
    ),
    Op.ALOAD: (
        ["LOAD 0", "LOAD 1", "ALOAD"],
        [
            ("in-range", [ARR, COUNTER], None),
            ("null", [ARR, COUNTER], "null"),
            ("high", [ARR, Y], "bounds"),
            ("negative", [ARR, Y], "bounds_negative"),
        ],
    ),
    Op.ASTORE: (
        ["LOAD 0", "LOAD 1", "LOAD 2", "ASTORE"],
        [
            ("in-range", [ARR, COUNTER, X], None),
            ("null", [ARR, COUNTER, X], "null"),
            ("high", [ARR, Y, X], "bounds"),
            ("negative", [ARR, Y, X], "bounds_negative"),
        ],
    ),
    Op.ARRAY_LEN: (["LOAD 0", "ARRAY_LEN"], [("arr", [ARR], None), ("null", [ARR], "null")]),
    Op.PRINT: (["LOAD 0", "PRINT", "PUSH 1"], [("int", [X], None)]),
    Op.NOP: (["LOAD 0", "NOP"], [("int", [X], None)]),
}
for _op in (Op.ADD, Op.SUB, Op.MUL, Op.LT, Op.LE, Op.GT, Op.GE):
    CASES[_op] = (
        BINARY + [_op.name],
        [("ints", [COUNTER, "PUSH 1"], None), ("negative", ["PUSH -7", Y], None)],
    )
for _op in (Op.DIV, Op.MOD):
    CASES[_op] = (
        BINARY + [_op.name],
        [
            ("ints", [X, Y], None),
            ("negative-dividend", ["PUSH -7", Y], None),
            ("negative-divisor", [X, "PUSH -2"], None),
            ("zero", [X, Y], "div_zero"),
        ],
    )
for _op in (Op.EQ, Op.NE):
    CASES[_op] = (
        BINARY + [_op.name],
        [
            ("ints", [COUNTER, "PUSH 1"], None),
            ("same-object", [OBJ, OBJ], None),
            ("object-null", [OBJ, "PUSH_NULL"], None),
            ("null-null", ["PUSH_NULL", "PUSH_NULL"], None),
            ("object-int", [OBJ, "PUSH 1"], None),
        ],
    )

DATA_SPECS = [spec for spec in OPCODE_SPECS if spec.kind in optemplates.TEMPLATES]

PARAMS = [
    pytest.param(spec, args, late, id=f"{spec.op.name}-{label}")
    for spec in DATA_SPECS
    for label, args, late in CASES[spec.op][1]
]


def _program(spec, args, late, leaf: bool):
    body, _scenarios = CASES[spec.op]
    returns_value = spec.op not in (Op.PUTFIELD, Op.ASTORE)
    lines = list(body)
    if leaf:
        lines.append("RETURN_VAL" if returns_value else "RETURN")
    else:
        # PRINT is not leaf-eligible: the subject gets a real frame and,
        # under the forced JIT, its own compiled body.
        lines += [] if returns_value else ["PUSH 0"]
        lines += ["PRINT", "RETURN"]
    void = "" if leaf and returns_value else " void"
    late_lines = []
    if late is not None:
        late_lines = [
            f"  {COUNTER}", "  PUSH 2", "  LT", "  JUMP_IF_TRUE call",
            *(f"  {line}" for line in LATE[late]),
        ]
    text = "\n".join(
        [
            "class Point fields x",
            "method Point.getX/1 locals=1",
            "  LOAD 0", "  GETFIELD 0", "  RETURN_VAL",
            "end",
            f"func subject/{len(args)} locals={max(len(args), 1)}{void}",
            *(f"  {line}" for line in lines),
            "end",
            "func main/0 locals=5 void",
            "  NEW Point", "  STORE 0", "  LOAD 0", "  PUSH 5", "  PUTFIELD 0",
            "  PUSH 3", "  NEW_ARRAY", "  STORE 1",
            "  LOAD 1", "  PUSH 1", "  PUSH 40", "  ASTORE",
            "  PUSH 7", "  STORE 3", "  PUSH 2", "  STORE 4",
            "label loop",
            *late_lines,
            "label call",
            *(f"  {line}" for line in args),
            f"  CALL_STATIC subject {len(args)}",
            *(["  PRINT"] if leaf and returns_value else []),
            # Heap effects of the op, observed from outside.
            "  LOAD 0", "  GETFIELD 0", "  PRINT",
            "  LOAD 1", "  PUSH 1", "  ALOAD", "  PRINT",
            "  LOAD 2", "  PUSH 1", "  ADD", "  STORE 2",
            "  LOAD 2", "  PUSH 3", "  LT", "  JUMP_IF_TRUE loop",
            "  RETURN",
            "end",
        ]
    )
    return assemble(text)


def _assert_conforms(spec, args, late, leaf, interval):
    program = _program(spec, args, late, leaf)
    overrides = {} if interval is None else {"timer_interval": interval}
    expected = run_spec_reference(
        program, config_named("jikes", fuse=False, ic=False, **overrides)
    )
    assert (expected["error"] is not None) == (late is not None)
    subject = program.function_index("subject")
    for label, flags in (
        ("no-ic", {"ic": False}), ("ic", {"ic": True}), ("jit", {"jit": True})
    ):
        vm, got = run_transcript(
            program,
            config_named("jikes", **flags, **overrides),
            force_jit if label == "jit" else None,
        )
        assert got == expected, label
        method = vm.code_cache.methods[subject]
        if label != "no-ic":
            assert (method.leaf is not None) == leaf
        if label == "jit" and leaf:
            assert vm.jit_leaf_calls > 0
        if label == "jit" and not leaf:
            assert method.jit is not None and method.jit.source is not None
            assert vm.jit_entries > 0
    return expected


@pytest.mark.parametrize("interval", [None, 97], ids=["default-tick", "tick97"])
@pytest.mark.parametrize("spec,args,late", PARAMS)
def test_method_body_conforms_to_spec(spec, args, late, interval):
    """The op inside a compiled method body (``_Compiler`` context):
    fault preconditions exit with the operands back on the stack and
    the pre-charged segment suffix refunded."""
    _assert_conforms(spec, args, late, False, interval)


@pytest.mark.parametrize("interval", [None, 97], ids=["default-tick", "tick97"])
@pytest.mark.parametrize(
    "spec,args,late",
    [p for p in PARAMS if int(p.values[0].op) in optemplates.LEAF_OPS],
)
def test_leaf_body_conforms_to_spec(spec, args, late, interval):
    """The op inside a frameless leaf: the IC closure (``FAIL`` before
    any write lands) and the JIT's call-site expansion / closure call
    (exit at the call pc with the caller's stack)."""
    _assert_conforms(spec, args, late, True, interval)


def test_every_listed_fault_mode_has_a_scenario():
    for spec in DATA_SPECS:
        covered = {late for _label, _args, late in CASES[spec.op][1]}
        assert {fault.kind for fault in spec.faults} <= covered, spec.op.name


def test_kinds_are_templated_or_control():
    kinds = {spec.kind for spec in OPCODE_SPECS}
    assert kinds == optemplates.TEMPLATES.keys() | optemplates.CONTROL_KINDS
    assert not optemplates.TEMPLATES.keys() & optemplates.CONTROL_KINDS
    assert optemplates.PURE_LEAF_OPS < optemplates.LEAF_OPS
    # Heap writes are leaf-eligible (deferred) but never expanded at a
    # JIT call site; allocation, output and VM-table reads need a frame.
    assert int(Op.PUTFIELD) in optemplates.LEAF_OPS - optemplates.PURE_LEAF_OPS
    for op in (Op.NEW, Op.NEW_ARRAY, Op.PRINT, Op.GUARD_METHOD, Op.ASTORE,
               Op.JUMP, Op.JUMP_IF_FALSE, Op.CALL_STATIC, Op.RETURN_VAL):
        assert int(op) not in optemplates.LEAF_OPS


def test_deferred_write_lands_once_when_a_later_op_fails():
    """``this.x = v; return 10 / d`` with d == 0 on the third call: the
    closure returns FAIL with the write still pending, the generic
    replay performs it, and the heap the guest can observe afterwards
    matches the spec executor (no lost and no doubled write)."""
    program = assemble(
        """
class Point fields x
func setdiv/3 locals=3
  LOAD 0
  LOAD 0
  GETFIELD 0
  LOAD 1
  ADD
  PUTFIELD 0
  PUSH 10
  LOAD 2
  DIV
  RETURN_VAL
end
func main/0 locals=2 void
  NEW Point
  STORE 0
  PUSH 2
  STORE 1
label loop
  LOAD 0
  PUSH 3
  LOAD 1
  CALL_STATIC setdiv 3
  PRINT
  LOAD 0
  GETFIELD 0
  PRINT
  LOAD 1
  PUSH 1
  SUB
  STORE 1
  JUMP loop
end
"""
    )
    expected = run_spec_reference(program, config_named("jikes", fuse=False, ic=False))
    assert expected["error"][0] == "DivisionByZeroError"
    assert expected["output"] == [5, 3, 10, 6]
    for flags, jit in (({"ic": False}, False), ({"ic": True}, False), ({"jit": True}, True)):
        vm, got = run_transcript(
            program, config_named("jikes", **flags), force_jit if jit else None
        )
        assert got == expected
        point = vm.frames[0].locals[0]
        assert point.fields == [9]  # 3 + 3 + 3: the faulting call's write landed once
