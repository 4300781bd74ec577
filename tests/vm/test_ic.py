"""Unit tests for the inline-cache machinery (:mod:`repro.vm.ic`).

The differential suite (``test_ic_identity.py``) proves IC-on == IC-off
on whole programs; these tests pin down the cache internals: state
transitions (mono → poly → megamorphic), the missing-selector error on
every dispatch path, receiver-count survival across recompilation, and
leaf-template eligibility.
"""

from __future__ import annotations

import pytest

from repro.bytecode.assembler import assemble
from repro.frontend.codegen import compile_source
from repro.opt.inline import InlinePlan
from repro.opt.pipeline import optimize_function
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.receivers import ReceiverProfile
from repro.vm import ic
from repro.vm.config import jikes_config
from repro.vm.errors import VMError
from repro.vm.interpreter import Interpreter
from repro.vm.values import HeapObject


def _poly_source(num_classes: int, iterations: int = 64) -> str:
    """Guest program with one hot virtual site seeing ``num_classes``
    receiver classes (16 receivers cycling through the mix)."""
    lines = ["class V0 { def f(x: int): int { return x + 1; } }"]
    for k in range(1, num_classes):
        lines.append(
            f"class V{k} extends V0 "
            f"{{ def f(x: int): int {{ return x + {k + 1}; }} }}"
        )
    lines.append("def main() {")
    lines.append("  var objs = new V0[16];")
    for i in range(16):
        lines.append(f"  objs[{i}] = new V{i % num_classes}();")
    lines.append("  var t = 0;")
    lines.append(
        f"  for (var i = 0; i < {iterations}; i = i + 1) "
        "{ t = (t + objs[i % 16].f(t)) % 65521; }"
    )
    lines.append("  print(t);")
    lines.append("}")
    return "\n".join(lines)


def _virtual_entries(vm):
    entries = []
    for method in vm.code_cache.methods:
        if method is None or getattr(method, "ics", None) is None:
            continue
        for entry in method.ics:
            if entry is not None and ic.entry_is_virtual(entry):
                entries.append(entry)
    return entries


def _run(source, **overrides):
    program = compile_source(source)
    vm = Interpreter(program, jikes_config(**overrides))
    vm.run()
    return program, vm


# -- state transitions ---------------------------------------------------------


@pytest.mark.parametrize(
    "num_classes,expected",
    [(1, "mono"), (2, "poly(2)"), (3, "poly(3)"), (8, "poly(8)"), (16, "mega")],
)
def test_site_state_matches_receiver_mix(num_classes, expected):
    _, vm = _run(_poly_source(num_classes))
    states = [ic.describe_state(e) for e in _virtual_entries(vm)]
    assert expected in states
    if num_classes > 1:
        assert vm.ic_transitions > 0
    if expected == "mega":
        assert vm.code_cache.megamorphic_sites >= 1
    else:
        assert vm.code_cache.megamorphic_sites == 0


def test_bindings_cover_every_receiver_class():
    program, vm = _run(_poly_source(4))
    entry = max(_virtual_entries(vm), key=lambda e: e[ic.V_STATE])
    bound = {rclass for rclass, _ in ic.virtual_entry_bindings(entry)}
    expected = {program.class_named(f"V{k}").index for k in range(4)}
    assert bound == expected
    # Two inline slots plus the overflow list hold the other two.
    assert entry[ic.V_CLASS0] >= 0 and entry[ic.V_CLASS1] >= 0
    assert len(entry[ic.V_REST]) == 2


def test_megamorphic_entry_keeps_exact_counts():
    """Past POLY_LIMIT the flat-table path still counts every receiver
    (the profile must stay exact, not stop at the overflow)."""
    program, vm = _run(_poly_source(16, iterations=160))
    profile = ReceiverProfile.from_cache(vm.code_cache)
    hot_site, total = profile.hot_sites(1)[0]
    assert total == 160
    assert len(profile.site_counts(*hot_site)) == 16


# -- missing selector (hand-assembled bytecode) --------------------------------

#: ``B`` shares no hierarchy with ``A`` and does not implement ``f``;
#: the frontend rejects such programs, so the regression must be
#: hand-assembled.  The loop drives the *same* call site with an ``A``
#: first (quickening it) and a ``B`` on the second iteration.
MISSING_AFTER_QUICKEN = """
class A
method A.f/1
  RETURN
end
class B
func main/0 locals=2 void
  NEW A
  STORE 0
  PUSH 0
  STORE 1
label loop
  LOAD 0
  CALL_VIRTUAL f 0
  NEW B
  STORE 0
  LOAD 1
  PUSH 1
  ADD
  STORE 1
  LOAD 1
  PUSH 2
  LT
  JUMP_IF_TRUE loop
  RETURN
end
"""

MISSING_COLD = """
class A
method A.f/1
  RETURN
end
class B
func main/0 locals=1 void
  NEW B
  STORE 0
  LOAD 0
  CALL_VIRTUAL f 0
  RETURN
end
"""


def _mega_missing_source(good_classes: int = 9) -> str:
    """One call site that sees ``good_classes`` implementing classes
    (overflowing to megamorphic) and then a class without the selector."""
    lines = []
    for k in range(good_classes):
        lines += [f"class C{k}", f"method C{k}.f/1", "  RETURN", "end"]
    lines.append("class X")
    n = good_classes + 1
    lines += [f"func main/0 locals=2 void", f"  PUSH {n}", "  NEW_ARRAY", "  STORE 0"]
    for k in range(good_classes):
        lines += ["  LOAD 0", f"  PUSH {k}", f"  NEW C{k}", "  ASTORE"]
    lines += ["  LOAD 0", f"  PUSH {good_classes}", "  NEW X", "  ASTORE"]
    lines += [
        "  PUSH 0",
        "  STORE 1",
        "label loop",
        "  LOAD 0",
        "  LOAD 1",
        "  ALOAD",
        "  CALL_VIRTUAL f 0",
        "  LOAD 1",
        "  PUSH 1",
        "  ADD",
        "  STORE 1",
        "  LOAD 1",
        f"  PUSH {n}",
        "  LT",
        "  JUMP_IF_TRUE loop",
        "  RETURN",
        "end",
    ]
    return "\n".join(lines)


def _expect_missing_selector(program, **overrides):
    vm = Interpreter(program, jikes_config(**overrides))
    with pytest.raises(VMError) as excinfo:
        vm.run()
    return excinfo.value


@pytest.mark.parametrize(
    "source,label",
    [
        (MISSING_COLD, "cold site"),
        (MISSING_AFTER_QUICKEN, "quickened site"),
    ],
)
def test_missing_selector_raises_vm_error(source, label):
    # verify=False: the unresolvable f/0 site is the point of the test,
    # and the verifier cannot type an unresolvable virtual call's
    # return convention.
    program = assemble(source, verify=False)
    with_ic = _expect_missing_selector(program, ic=True)
    assert "class 'B' does not understand f/0" in str(with_ic)
    assert with_ic.function == "main"  # raising method's qualified name
    assert with_ic.pc is not None
    # Identical error — message, method context, and pc — without ICs.
    without = _expect_missing_selector(program, ic=False)
    assert str(with_ic) == str(without)
    assert (with_ic.function, with_ic.pc) == (without.function, without.pc)


def test_missing_selector_on_megamorphic_site():
    """The flat-table fallback raises the same error when a receiver's
    dispatch row has no entry for the selector."""
    program = assemble(_mega_missing_source(), verify=False)
    with_ic = _expect_missing_selector(program, ic=True)
    assert "class 'X' does not understand f/0" in str(with_ic)
    without = _expect_missing_selector(program, ic=False)
    assert str(with_ic) == str(without)


# -- receiver counts survive recompilation -------------------------------------


def test_counts_survive_caller_recompilation():
    """Receiver cells are keyed by baseline coordinates through the
    inline map, so installing a recompiled caller keeps counting into
    the same cells."""
    program = compile_source(_poly_source(4))
    vm = Interpreter(program, jikes_config())
    vm.run()
    cache = vm.code_cache
    first = ReceiverProfile.from_cache(cache)
    assert first.total_calls() == 64
    main_index = next(
        i for i, f in enumerate(program.functions) if f.qualified_name == "main"
    )
    result = optimize_function(
        program, InlinePlan(function_index=main_index, decisions=[])
    )
    cache.install(result.function, opt_level=1)
    vm.run()
    second = ReceiverProfile.from_cache(cache)
    assert second.total_calls() == 2 * first.total_calls()
    assert set(second.sites) == set(first.sites)  # same baseline keys
    assert vm.output[0] == vm.output[1]


def test_callee_recompilation_repoints_bindings():
    """Installing a new version of a *callee* repoints every cache
    entry bound to it (``_refresh_ic_entries``); stale bindings would
    keep dispatching to dead code."""
    program = compile_source(_poly_source(2))
    vm = Interpreter(program, jikes_config())
    vm.run()
    cache = vm.code_cache
    callee_index = next(
        i
        for i, f in enumerate(program.functions)
        if f.qualified_name == "V0.f"
    )
    result = optimize_function(
        program, InlinePlan(function_index=callee_index, decisions=[])
    )
    new_method = cache.install(result.function, opt_level=1)
    bound = [
        entry
        for entry in _virtual_entries(vm)
        for _, index in ic.virtual_entry_bindings(entry)
        if index == callee_index
    ]
    assert bound
    for entry in bound:
        methods = [entry[ic.V_METHOD0], entry[ic.V_METHOD1]]
        rest = entry[ic.V_REST] or []
        methods += [r[1] for r in rest]
        assert any(m is new_method for m in methods)
    before = list(vm.output)
    vm.run()
    assert vm.output == before + before


# -- leaf templates ------------------------------------------------------------


def test_accessor_gets_compiled_leaf():
    source = """
    class Point {
      var x: int;
      def getX(): int { return this.x; }
    }
    def main() {
      var p = new Point();
      p.x = 7;
      var t = 0;
      for (var i = 0; i < 8; i = i + 1) { t = t + p.getX(); }
      print(t);
    }
    """
    program, vm = _run(source)
    index = next(
        i
        for i, f in enumerate(program.functions)
        if f.qualified_name == "Point.getX"
    )
    method = vm.code_cache.methods[index]
    assert method.leaf is not None
    assert method.leaf[ic.L_FN] is not None  # jump-free => host closure
    assert method.leaf[ic.L_COST] > 0
    assert vm.output == [56]


def test_loopy_method_is_not_a_leaf():
    source = """
    class Summer {
      def sum(n: int): int {
        var t = 0;
        for (var i = 0; i < n; i = i + 1) { t = t + i; }
        return t;
      }
    }
    def main() {
      var s = new Summer();
      print(s.sum(10));
    }
    """
    program, vm = _run(source)
    index = next(
        i
        for i, f in enumerate(program.functions)
        if f.qualified_name == "Summer.sum"
    )
    assert vm.code_cache.methods[index].leaf is None  # backedge
    assert vm.output == [45]


LEAF_DIVIDES_BY_ZERO = """
class Ratio {
  var num: int;
  def over(d: int): int { return this.num / d; }
}
def main() {
  var r = new Ratio();
  r.num = 100;
  var t = 0;
  for (var i = 4; i >= 0; i = i - 1) { t = t + r.over(i); }
  print(t);
}
"""


def _run_to_division_fault(use_ic, observed):
    program = compile_source(LEAF_DIVIDES_BY_ZERO)
    vm = Interpreter(program, jikes_config(ic=use_ic))
    profiler = ExhaustiveProfiler()
    if observed:
        profiler.install(vm)
    with pytest.raises(VMError) as excinfo:
        vm.run()
    assert "division by zero" in str(excinfo.value)
    assert excinfo.value.function == "Ratio.over"
    return vm, profiler


@pytest.mark.parametrize("use_ic", [True, False], ids=["ic", "raw"])
def test_leaf_divide_by_zero_falls_back_identically(use_ic):
    """A fault inside a leaf body (division by zero) makes the closure
    return LEAF_FAIL and the generic sequence re-executes the call — the
    error is indistinguishable from the raw interpreter's."""
    _run_to_division_fault(use_ic, observed=False)


@pytest.mark.parametrize("use_ic", [True, False], ids=["ic", "raw"])
def test_leaf_divide_by_zero_notifies_once_across_the_replay(use_ic):
    """The call is notified before the leaf is tried, so the generic
    re-execution after LEAF_FAIL must not notify again."""
    vm, profiler = _run_to_division_fault(use_ic, observed=True)
    assert vm.call_count == 5
    assert sum(profiler.dcg.edges().values()) == 5


def _run_bump_fault(observed):
    """``ic`` and ``raw`` end states of a leaf whose PUTFIELD precedes
    its faulting op: (receiver fields, exhaustive DCG)."""
    source = """
    class Box {
      var count: int;
      def bump(d: int): int { this.count = this.count + 1; return 10 / d; }
    }
    def main() {
      var b = new Box();
      b.bump(2);
      b.bump(0);
    }
    """
    program = compile_source(source)
    states = {}
    for label, use_ic in (("ic", True), ("raw", False)):
        vm = Interpreter(program, jikes_config(ic=use_ic))
        profiler = ExhaustiveProfiler()
        if observed:
            profiler.install(vm)
        with pytest.raises(VMError):
            vm.run()
        box = next(
            value
            for frame in vm.frames
            for value in frame.locals
            if isinstance(value, HeapObject)
        )
        states[label] = (list(box.fields), profiler.dcg.edges())
    return states


def test_leaf_putfield_rolls_back_on_fault():
    """A PUTFIELD before the faulting op is deferred past the last
    guard, so the failed closure wrote nothing and the generic
    re-execution applies it — the final state matches the raw
    interpreter exactly (write applied once)."""
    states = _run_bump_fault(observed=False)
    assert states["ic"] == states["raw"] == ([2], {})


def test_leaf_putfield_fault_records_the_edge_once():
    states = _run_bump_fault(observed=True)
    assert states["ic"] == states["raw"]
    fields, edges = states["ic"]
    assert fields == [2]
    assert sum(edges.values()) == 2
