"""Verifier tests: every structural check fires."""

import pytest

from repro.bytecode.function import FunctionInfo
from repro.bytecode.instr import Instr
from repro.bytecode.opcodes import Op
from repro.bytecode.program import ClassInfo, Program
from repro.bytecode.verifier import VerifyError, verify_function, verify_program
from repro.frontend.codegen import compile_source


def func(code, num_params=0, num_locals=0, returns_value=True, name="f"):
    return FunctionInfo(
        name=name,
        code=code,
        num_params=num_params,
        num_locals=max(num_locals, num_params),
        returns_value=returns_value,
    )


def test_valid_function_passes():
    verify_function(func([Instr(Op.PUSH, 1), Instr(Op.RETURN_VAL)]))


def test_empty_code_rejected():
    with pytest.raises(VerifyError, match="empty"):
        verify_function(func([]))


def test_fall_off_end_rejected():
    with pytest.raises(VerifyError, match="falls off"):
        verify_function(func([Instr(Op.PUSH, 1)]))


def test_stack_underflow_rejected():
    with pytest.raises(VerifyError):
        verify_function(func([Instr(Op.ADD), Instr(Op.RETURN)], returns_value=False))


def test_jump_target_out_of_range_rejected():
    with pytest.raises(VerifyError, match="out of range"):
        verify_function(func([Instr(Op.JUMP, 99), Instr(Op.RETURN)]))


def test_inconsistent_join_depth_rejected():
    # Path A pushes one value before the join; path B pushes two.
    code = [
        Instr(Op.PUSH, 1),           # 0
        Instr(Op.JUMP_IF_FALSE, 4),  # 1 -> join at 4 with depth 0 via branch
        Instr(Op.PUSH, 2),           # 2
        Instr(Op.PUSH, 3),           # 3   fall through to 4 with depth 2
        Instr(Op.RETURN),            # 4
    ]
    with pytest.raises(VerifyError, match="join"):
        verify_function(func(code, returns_value=False))


def test_load_slot_out_of_range_rejected():
    with pytest.raises(VerifyError, match="slot"):
        verify_function(func([Instr(Op.LOAD, 3), Instr(Op.RETURN_VAL)], num_locals=1))


def test_store_slot_out_of_range_rejected():
    with pytest.raises(VerifyError, match="slot"):
        verify_function(
            func([Instr(Op.PUSH, 1), Instr(Op.STORE, 5), Instr(Op.RETURN)],
                 num_locals=1, returns_value=False)
        )


def test_return_val_needs_operand():
    with pytest.raises(VerifyError):
        verify_function(func([Instr(Op.RETURN_VAL)]))


def _program_with(main_code, extra=None):
    program = Program()
    main = FunctionInfo("main", main_code, 0, 0, returns_value=False)
    program.add_function(main)
    if extra is not None:
        program.add_function(extra)
    program.build_vtables()
    return program


def test_call_static_arity_checked_against_program():
    callee = FunctionInfo("g", [Instr(Op.RETURN)], 2, 2, returns_value=False)
    program = Program()
    program.add_function(callee)
    main = FunctionInfo(
        "main",
        [Instr(Op.PUSH, 1), Instr(Op.CALL_STATIC, 0, 1), Instr(Op.RETURN)],
        0,
        0,
        returns_value=False,
    )
    program.add_function(main)
    with pytest.raises(VerifyError, match="arity"):
        verify_function(main, program)


def test_bad_function_index_rejected():
    program = _program_with([Instr(Op.CALL_STATIC, 42, 0), Instr(Op.RETURN)])
    with pytest.raises(VerifyError, match="function index"):
        verify_program(program)


def test_bad_class_index_rejected():
    program = _program_with([Instr(Op.NEW, 7), Instr(Op.POP), Instr(Op.RETURN)])
    with pytest.raises(VerifyError, match="class index"):
        verify_program(program)


def test_bad_selector_rejected():
    program = _program_with(
        [Instr(Op.PUSH_NULL), Instr(Op.CALL_VIRTUAL, 9, 0), Instr(Op.POP), Instr(Op.RETURN)]
    )
    with pytest.raises(VerifyError, match="selector"):
        verify_program(program)


def test_void_value_selector_conflict_rejected():
    program = Program()
    program.add_class(ClassInfo(name="A"))
    program.add_class(ClassInfo(name="B"))
    f1 = FunctionInfo("f", [Instr(Op.RETURN)], 1, 1, kind="method", owner="A",
                      returns_value=False)
    f2 = FunctionInfo("f", [Instr(Op.PUSH, 1), Instr(Op.RETURN_VAL)], 1, 1,
                      kind="method", owner="B", returns_value=True)
    index1 = program.add_function(f1)
    index2 = program.add_function(f2)
    program.classes[0].declared_methods.append(index1)
    program.classes[1].declared_methods.append(index2)
    main = FunctionInfo("main", [Instr(Op.RETURN)], 0, 0, returns_value=False)
    program.add_function(main)
    program.build_vtables()
    with pytest.raises(VerifyError, match="void in one class"):
        verify_program(program)


def test_unreachable_code_not_checked():
    # Junk after an unconditional return is never verified.
    code = [Instr(Op.RETURN), Instr(Op.ADD)]
    verify_function(func(code, returns_value=False))


def test_whole_compiled_suite_verifies():
    source = """
    class A { var x: int; def f(): int { return this.x; } }
    class B extends A { def f(): int { return 2; } }
    def helper(k: int): int { if (k > 0) { return helper(k - 1); } return 0; }
    def main() { var b: A = new B(); print(b.f() + helper(3)); }
    """
    verify_program(compile_source(source))


# -- assemble-time verification (spec-derived stack discipline) ---------------


def test_assemble_rejects_stack_underflow():
    """Hand-assembled programs with bad stack discipline are rejected at
    assembly time, not left to fault mid-run."""
    from repro.bytecode.assembler import assemble

    with pytest.raises(VerifyError, match="needs"):
        assemble("func main/0 void\n  ADD\n  RETURN\nend")


def test_assemble_rejects_join_divergence():
    from repro.bytecode.assembler import assemble

    text = "\n".join(
        [
            "func main/0 locals=1 void",
            "  PUSH 1",
            "  JUMP_IF_FALSE merge",
            "  PUSH 7",  # this arm reaches merge with depth 1,
            "label merge",  # the branch arm with depth 0
            "  RETURN",
            "end",
        ]
    )
    with pytest.raises(VerifyError, match="join"):
        assemble(text)


def test_assemble_verify_escape_hatch():
    from repro.bytecode.assembler import assemble

    text = "func main/0 void\n  ADD\n  RETURN\nend"
    program = assemble(text, verify=False)
    assert program.functions  # raw program handed over unverified


def test_verifier_pops_derive_from_specs():
    """The verifier's pop counts are the spec table itself, not a copy
    that can drift."""
    from repro.bytecode.opcodes import POPS
    from repro.bytecode import verifier

    assert verifier._POPS is POPS


# -- cost: the virtual-call return convention is resolved once per program ------


class CountingList(list):
    """A function table that counts every FunctionInfo handed out."""

    touched = 0

    def __iter__(self):
        for item in list.__iter__(self):
            self.touched += 1
            yield item

    def __getitem__(self, index):
        self.touched += 1
        return list.__getitem__(self, index)


def wide_program(width: int, calls_each: int):
    """``width`` classes with one distinct selector each, and a ``main``
    that calls every one of them ``calls_each`` times."""
    classes = "".join(
        f"class C{i} {{ def m{i}(): int {{ return {i}; }} }}\n" for i in range(width)
    )
    calls = "".join(
        f"var c{i} = new C{i}(); " + f"t = t + c{i}.m{i}(); " * calls_each
        for i in range(width)
    )
    return compile_source(f"{classes}def main() {{ var t = 0; {calls} print(t); }}")


@pytest.mark.parametrize("width", [20, 80])
def test_verifying_touches_functions_linearly_not_sites_times_functions(width):
    calls_each = 5
    program = wide_program(width, calls_each)
    sites = sum(
        instr.op is Op.CALL_VIRTUAL for f in program.functions for instr in f.code
    )
    assert sites == width * calls_each
    program.functions = CountingList(program.functions)
    verify_program(program)
    # A few passes over the table plus one lookup per static call site;
    # scanning the table at every virtual site costs about sites * width / 2.
    assert program.functions.touched <= 4 * len(program.functions) + sites


def test_void_and_value_virtual_calls_use_their_own_convention():
    # One selector of each kind, the void one declared *after* many
    # value-returning methods: its sites must still pop without pushing.
    source = """
    class A { def get(): int { return 1; } def poke() { } }
    class B extends A { def get(): int { return 2; } def poke() { } }
    def main() { var a: A = new B(); a.poke(); print(a.get()); a.poke(); }
    """
    program = compile_source(source)
    verify_program(program)
    for function in program.functions:
        verify_function(function, program)  # the optimizer's entry point
