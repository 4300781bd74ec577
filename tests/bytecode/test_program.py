"""Program container tests: registration, selectors, vtables."""

import pytest

from repro.bytecode.function import FunctionInfo
from repro.bytecode.instr import Instr
from repro.bytecode.opcodes import Op
from repro.bytecode.program import ClassInfo, Program, ProgramError
from tests.helpers import make_trivial_return_zero


def method(name, owner, returns_value=True):
    return FunctionInfo(
        name=name,
        code=[Instr(Op.PUSH, 0), Instr(Op.RETURN_VAL)],
        num_params=1,
        num_locals=1,
        kind="method",
        owner=owner,
        returns_value=returns_value,
    )


def build_hierarchy():
    program = Program()
    program.add_class(ClassInfo(name="A", field_layout=["x"]))
    program.add_class(ClassInfo(name="B", super_name="A", field_layout=["y"]))
    fa = method("f", "A")
    fb = method("f", "B")
    ga = method("g", "A")
    for function in (fa, fb, ga):
        index = program.add_function(function)
        program.class_named(function.owner).declared_methods.append(index)
    program.build_vtables()
    return program, fa, fb, ga


def test_duplicate_function_rejected():
    program = Program()
    program.add_function(make_trivial_return_zero("f"))
    with pytest.raises(ProgramError, match="duplicate"):
        program.add_function(make_trivial_return_zero("f"))


def test_duplicate_class_rejected():
    program = Program()
    program.add_class(ClassInfo(name="A"))
    with pytest.raises(ProgramError, match="duplicate"):
        program.add_class(ClassInfo(name="A"))


def test_selector_interning_is_stable():
    program = Program()
    sid1 = program.selector_id("f", 2)
    sid2 = program.selector_id("f", 2)
    sid3 = program.selector_id("f", 3)
    assert sid1 == sid2 and sid1 != sid3
    assert program.selectors[sid3] == ("f", 3)


def test_vtable_override():
    program, fa, fb, ga = build_hierarchy()
    sid_f = program.selector_id("f", 0)
    sid_g = program.selector_id("g", 0)
    assert program.class_named("A").vtable[sid_f] == fa.index
    assert program.class_named("B").vtable[sid_f] == fb.index
    # g is inherited.
    assert program.class_named("B").vtable[sid_g] == ga.index


def test_field_layout_inherited_first():
    program, *_ = build_hierarchy()
    b = program.class_named("B")
    assert b.field_layout == ["x", "y"]
    assert b.field_offsets == {"x": 0, "y": 1}


def test_ancestors():
    program, *_ = build_hierarchy()
    a = program.class_named("A")
    b = program.class_named("B")
    assert program.is_subclass(b.index, a.index)
    assert not program.is_subclass(a.index, b.index)


def test_subclass_before_superclass_rejected():
    program = Program()
    program.add_class(ClassInfo(name="B", super_name="A"))
    program.add_class(ClassInfo(name="A"))
    with pytest.raises(ProgramError, match="before its superclass"):
        program.build_vtables()


def test_entry_function_lookup():
    program = Program()
    with pytest.raises(ProgramError, match="main"):
        program.entry_function()
    program.add_function(make_trivial_return_zero("main"))
    assert program.entry_function().name == "main"


def test_function_named_lookup_and_errors():
    program, *_ = build_hierarchy()
    assert program.function_named("A.f").owner == "A"
    with pytest.raises(ProgramError, match="no function"):
        program.function_named("C.f")


def test_qualified_name_and_selector():
    f = method("go", "Widget")
    assert f.qualified_name == "Widget.go"
    assert f.selector == ("go", 0)  # receiver not counted


def test_bytecode_size_uses_opcode_widths():
    f = make_trivial_return_zero("t")
    # PUSH = 2 bytes, RETURN_VAL = 1 byte.
    assert f.bytecode_size() == 3


def test_total_bytecode_size():
    program, *_ = build_hierarchy()
    assert program.total_bytecode_size() == sum(
        f.bytecode_size() for f in program.functions
    )
