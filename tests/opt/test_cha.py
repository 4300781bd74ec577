"""Class hierarchy analysis tests."""

from repro.frontend.codegen import compile_source
from repro.opt.cha import ClassHierarchyAnalysis

SOURCE = """
class A { def f(): int { return 1; } def only(): int { return 9; } }
class B extends A { def f(): int { return 2; } }
class C extends B { def f(): int { return 3; } }
def main() {
  var a: A = new C();
  print(a.f() + a.only());
}
"""


def analysis():
    program = compile_source(SOURCE)
    return program, ClassHierarchyAnalysis(program)


def test_polymorphic_selector_has_all_overrides():
    program, cha = analysis()
    sid = program.selector_id("f", 0)
    targets = cha.possible_targets(sid)
    expected = {
        program.function_index("A.f"),
        program.function_index("B.f"),
        program.function_index("C.f"),
    }
    assert targets == expected
    assert len(cha.possible_targets(sid)) == 3
    assert not cha.is_monomorphic(sid)
    assert cha.monomorphic_target(sid) is None


def test_monomorphic_selector_detected():
    program, cha = analysis()
    sid = program.selector_id("only", 0)
    assert cha.is_monomorphic(sid)
    assert cha.monomorphic_target(sid) == program.function_index("A.only")


def test_unknown_selector_empty():
    program, cha = analysis()
    sid = program.selector_id("ghost", 0)
    assert cha.possible_targets(sid) == frozenset()
    assert len(cha.possible_targets(sid)) == 0
    assert cha.monomorphic_target(sid) is None


def test_inherited_method_counts_once():
    source = """
    class A { def g(): int { return 1; } }
    class B extends A { }
    class C extends A { }
    def main() { print(new B().g() + new C().g()); }
    """
    program = compile_source(source)
    cha = ClassHierarchyAnalysis(program)
    sid = program.selector_id("g", 0)
    # B and C both inherit A.g: one implementation.
    assert cha.is_monomorphic(sid)
