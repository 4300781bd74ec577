"""Bytecode verifier.

A lightweight abstract interpretation over operand-stack *depth* (not
types): it checks structural well-formedness properties that the
interpreter and the optimizer both rely on.  The optimizer re-verifies
every function it rewrites, which caught many inliner bugs during
development and is cheap enough to leave on.

Checks performed per function:

* every jump target is a valid bytecode index,
* local slot numbers are within ``num_locals``,
* call operands reference real functions/selectors with matching arity,
* stack depth is consistent at control-flow joins,
* stack depth never goes negative and matches return conventions,
* control cannot fall off the end of the code.
"""

from __future__ import annotations

from repro.bytecode.function import FunctionInfo
from repro.bytecode.opcodes import (
    CALL_OPS,
    JUMP_OPS,
    Op,
    POPS,
    STACK_EFFECT,
    TERMINATOR_OPS,
)
from repro.bytecode.program import Program

#: Number of operands each opcode pops (before pushing its results);
#: used for the "depth never negative" check.  Derived from the
#: declarative opcode specs — the same table the dispatch-loop
#: generator charges from.  Calls are None here (argc-dependent) and
#: special-cased below.
_POPS: dict[Op, int | None] = POPS


class VerifyError(Exception):
    """Raised when a function fails verification."""

    def __init__(self, function: FunctionInfo, pc: int | None, message: str):
        where = f"{function.qualified_name}"
        if pc is not None:
            where += f" @pc={pc}"
        super().__init__(f"{where}: {message}")
        self.function = function
        self.pc = pc


def verify_function(
    function: FunctionInfo,
    program: Program | None = None,
    virtual_pushes: list[int] | None = None,
) -> None:
    """Verify one function; raises :class:`VerifyError` on failure.

    ``virtual_pushes`` is :func:`_virtual_pushes` of ``program``, passed by
    :func:`verify_program` so it is resolved once per program rather than
    once per function.
    """
    code = function.code
    if not code:
        raise VerifyError(function, None, "empty code")

    code_len = len(code)
    depth_at: dict[int, int] = {0: 0}
    worklist = [0]  # every pc on it has passed a range check
    while worklist:
        pc = worklist.pop()
        depth = depth_at[pc]
        instr = code[pc]
        op = instr.op

        # ``Op.X`` costs an enum-class lookup; only calls pay for it here.
        is_call = op in CALL_OPS
        if is_call:
            pops = instr.b if op is Op.CALL_STATIC else instr.b + 1  # receiver
        else:
            pops = _POPS.get(op)
        if pops is None:
            raise VerifyError(function, pc, f"unverifiable opcode {op.name}")
        if depth < pops:
            raise VerifyError(
                function, pc, f"{op.name} needs {pops} operand(s), stack has {depth}"
            )

        check_operands = _OPERAND_RULES.get(op)
        if check_operands is not None:
            check_operands(function, program, pc, instr)

        if not is_call:
            effect = STACK_EFFECT[op]
        elif program is None:
            effect = 1 - pops
        elif op is Op.CALL_STATIC:
            effect = (1 if program.functions[instr.a].returns_value else 0) - pops
        else:
            # Virtual callees may be overridden; Mini requires overriding
            # methods to keep the signature, so any resolution target has
            # the same return convention.  Assume value-returning unless
            # the program proves otherwise via some resolution.
            if virtual_pushes is None:
                virtual_pushes = _virtual_pushes(program)
            effect = virtual_pushes[instr.a] - pops
        new_depth = depth + effect
        if new_depth < 0:
            raise VerifyError(function, pc, "stack underflow")

        # Both range checks come before either join check.
        successors: tuple[int, ...] = ()
        if op in JUMP_OPS:
            if not isinstance(instr.a, int) or not (0 <= instr.a < code_len):
                raise VerifyError(function, pc, f"jump target {instr.a!r} out of range")
            successors = (instr.a,)
        if op not in TERMINATOR_OPS:
            if pc + 1 >= code_len:
                raise VerifyError(function, pc, "control falls off the end of code")
            successors += (pc + 1,)
        for successor in successors:
            known = depth_at.get(successor)
            if known is None:
                depth_at[successor] = new_depth
                worklist.append(successor)
            elif known != new_depth:
                raise VerifyError(
                    function,
                    successor,
                    f"inconsistent stack depth at join: {known} vs {new_depth}",
                )


def _virtual_pushes(program: Program) -> list[int]:
    """Values a ``CALL_VIRTUAL`` pushes, by selector id: what the first
    method with that selector returns, 1 if the program has none."""
    returns: dict[tuple[str, int], bool] = {}
    for function in program.functions:
        if function.kind == "method":
            returns.setdefault(function.selector, function.returns_value)
    return [1 if returns.get(selector, True) else 0 for selector in program.selectors]


# Operand rules, one per opcode that has operands to check; each takes
# ``(function, program, pc, instr)`` and raises :class:`VerifyError`.


def _check_local_slot(function, program, pc, instr) -> None:
    if not isinstance(instr.a, int) or not (0 <= instr.a < function.num_locals):
        raise VerifyError(
            function, pc, f"{instr.op.name} slot {instr.a!r} out of range "
            f"(num_locals={function.num_locals})"
        )


def _check_push(function, program, pc, instr) -> None:
    if not isinstance(instr.a, int):
        raise VerifyError(function, pc, "PUSH needs an int operand")


def _check_call_static(function, program, pc, instr) -> None:
    if not isinstance(instr.b, int) or instr.b < 0:
        raise VerifyError(function, pc, "CALL_STATIC needs an argc operand")
    if program is not None:
        if not (0 <= instr.a < len(program.functions)):
            raise VerifyError(function, pc, f"bad function index {instr.a!r}")
        callee = program.functions[instr.a]
        if callee.num_params != instr.b:
            raise VerifyError(
                function,
                pc,
                f"arity mismatch calling {callee.qualified_name}: "
                f"passed {instr.b}, expects {callee.num_params}",
            )


def _check_call_virtual(function, program, pc, instr) -> None:
    if not isinstance(instr.b, int) or instr.b < 0:
        raise VerifyError(function, pc, "CALL_VIRTUAL needs an argc operand")
    if program is not None:
        if not (0 <= instr.a < len(program.selectors)):
            raise VerifyError(function, pc, f"bad selector id {instr.a!r}")
        _, argc = program.selectors[instr.a]
        if argc != instr.b:
            raise VerifyError(function, pc, "selector/argc mismatch")


def _check_class_index(function, program, pc, instr) -> None:
    if program is not None and not (0 <= instr.a < len(program.classes)):
        raise VerifyError(function, pc, f"bad class index {instr.a!r}")


def _check_guard_method(function, program, pc, instr) -> None:
    if program is not None:
        if not (0 <= instr.a < len(program.selectors)):
            raise VerifyError(function, pc, f"bad selector id {instr.a!r}")
        if not isinstance(instr.b, int) or not (
            0 <= instr.b < len(program.functions)
        ):
            raise VerifyError(function, pc, f"bad function index {instr.b!r}")


def _check_field_offset(function, program, pc, instr) -> None:
    if not isinstance(instr.a, int) or instr.a < 0:
        raise VerifyError(function, pc, f"{instr.op.name} needs a field offset")


_OPERAND_RULES = {
    Op.LOAD: _check_local_slot,
    Op.STORE: _check_local_slot,
    Op.PUSH: _check_push,
    Op.CALL_STATIC: _check_call_static,
    Op.CALL_VIRTUAL: _check_call_virtual,
    Op.NEW: _check_class_index,
    Op.IS_EXACT: _check_class_index,
    Op.GUARD_METHOD: _check_guard_method,
    Op.GETFIELD: _check_field_offset,
    Op.PUTFIELD: _check_field_offset,
}


def verify_program(program: Program) -> None:
    """Verify every function in ``program``.

    Also enforces the whole-program rule that all methods sharing a
    dispatch selector agree on whether they return a value — the
    depth-only verification of ``CALL_VIRTUAL`` sites depends on it.
    """
    returns_by_selector: dict[tuple[str, int], tuple[bool, str]] = {}
    for function in program.functions:
        if function.kind != "method":
            continue
        key = function.selector
        known = returns_by_selector.get(key)
        if known is None:
            returns_by_selector[key] = (function.returns_value, function.qualified_name)
        elif known[0] != function.returns_value:
            raise VerifyError(
                function,
                None,
                f"selector {key[0]}/{key[1]} is void in one class but "
                f"value-returning in another ({known[1]})",
            )
    virtual_pushes = _virtual_pushes(program)
    for function in program.functions:
        verify_function(function, program, virtual_pushes)
