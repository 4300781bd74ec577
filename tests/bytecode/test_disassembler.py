"""Disassembler tests, including assemble→disassemble→assemble round trips."""

from repro.bytecode.assembler import assemble
from repro.bytecode.disassembler import disassemble, disassemble_function
from repro.frontend.codegen import compile_source
from repro.vm.interpreter import Interpreter

ASM = """
class Point fields x y
class Point3 extends Point fields z

method Point.getX/1 locals=1
  LOAD 0
  GETFIELD 0
  RETURN_VAL
end

func main/0 locals=1 void
  NEW Point3
  STORE 0
  LOAD 0
  PUSH 9
  PUTFIELD 0
  LOAD 0
  CALL_VIRTUAL getX 0
  PRINT
  RETURN
end
"""


def run(program):
    vm = Interpreter(program)
    vm.run()
    return vm.output


def test_roundtrip_preserves_semantics():
    program = assemble(ASM)
    text = disassemble(program)
    program2 = assemble(text)
    assert run(program) == run(program2) == [9]


def test_roundtrip_is_fixpoint():
    program = assemble(ASM)
    text1 = disassemble(program)
    text2 = disassemble(assemble(text1))
    assert text1 == text2


def test_class_line_shows_extends_and_own_fields_only():
    text = disassemble(assemble(ASM))
    assert "class Point3 extends Point fields z" in text


def test_labels_emitted_for_jump_targets():
    program = compile_source("def main() { while (true) { } }")
    text = disassemble_function(program.function_named("main"), program)
    assert "label L0" in text
    assert "JUMP L0" in text


def test_symbolic_call_rendering():
    program = compile_source(
        "def g(): int { return 1; } def main() { print(g()); }"
    )
    text = disassemble_function(program.function_named("main"), program)
    assert "CALL_STATIC g 0" in text


def test_virtual_call_rendering():
    program = compile_source(
        "class A { def f(): int { return 1; } }"
        "def main() { print(new A().f()); }"
    )
    text = disassemble_function(program.function_named("main"), program)
    assert "CALL_VIRTUAL f 0" in text


def test_void_marker_rendered():
    program = compile_source("def main() { }")
    text = disassemble_function(program.function_named("main"), program)
    assert text.splitlines()[0].endswith("void")


def test_numeric_rendering_without_program():
    program = compile_source(
        "def g(): int { return 1; } def main() { print(g()); }"
    )
    text = disassemble_function(program.function_named("main"), None)
    assert "CALL_STATIC 0 0" in text


def test_spec_view_annotates_rows():
    from repro.bytecode.disassembler import disassemble_spec

    program = assemble(ASM)
    text = disassemble_spec(program)
    # The virtual call's stack account is argc-dependent, so the view
    # shows the site's actual consumption (receiver + 0 args).
    assert "1→ret" in text
    # GETFIELD carries its fault mode and fusability from the spec row.
    assert "faults=null" in text
    assert "fusable" in text
    # Quickening class and yieldpoint site annotations ride along.
    assert "quicken=call_virtual" in text
    assert "yieldpoint=epilogue" in text
    assert text.rstrip().splitlines()[-1].startswith("total:")


def test_ic_view_marks_jump_free_bodies_as_leaf_templates():
    from repro.bytecode.disassembler import describe_method_plan, disassemble_ic

    program = compile_source(
        """
        class Range {
          var lo: int;
          def low(): int { return this.lo; }
          def below(v: int): int { if (v < this.lo) { return 1; } return 0; }
        }
        def main() { var r = new Range(); print(r.low() + r.below(3)); }
        """
    )
    lines = disassemble_ic(program).splitlines()
    low = next(line for line in lines if line.startswith("Range.low/"))
    below = next(line for line in lines if line.startswith("Range.below/"))
    # Every template is a host closure: one kind, one cost.
    assert "[leaf template: cost " in low
    assert "leaf template" not in below  # branches: generic calling sequence
    assert lines[-1].endswith("1 leaf templates")
    assert "compiled" not in lines[-1] and "interpreted" not in low
    plan = describe_method_plan(program.function_named("Range.low"), program)
    assert "leaf template" in plan and "leaf template (" not in plan
