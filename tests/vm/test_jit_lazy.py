"""Promotion policy of the JIT: a counting trampoline, not
compile-everything-at-attach.

``test_jit_deopt.py`` proves generated code against the interpreter
with promotion forced at first entry.  This file pins *when* code gets
generated: only for methods that prove hot, once, from warm inline
caches — and that the trampoline standing in for a body is invisible
(exit accounting exact, observables identical) and safe on a code cache
that outlives one run.  Every gate is a count, never a timing.
"""

from __future__ import annotations

import pytest

from repro.benchsuite.generator import GeneratorConfig, generate_program
from repro.benchsuite.suite import program_for
from repro.frontend.codegen import compile_source
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter
from repro.vm.jit import JitManager, ic_signature, vm_jit_sig
from repro.vm.jit import compiler as jit_compiler
from repro.vm.jit import manager as jit_manager
from repro.vm.jit.manager import MAX_ATTEMPTS, PROMOTE_THRESHOLD
from repro.vm.runtime import CodeCache
from tests.helpers import receiver_mix_source
from tests.vm.test_jit_deopt import assert_exit_accounting

JIT = jikes_config(jit=True)
PLAIN = jikes_config(jit=False)


def observables(vm):
    return (
        list(vm.output), vm.time, vm.steps, vm.ticks, vm.call_count,
        vm.methods_executed, vm.ic_misses, vm.ic_transitions,
    )


def jit_counters(vm):
    return (
        vm.jit_compiles, vm.jit_entries, vm.jit_osr_entries, vm.jit_deopts,
        vm.jit_guard_exits, vm.jit_call_exits, vm.jit_return_exits,
        vm.jit_leaf_calls, vm.jit_direct_calls, vm.jit_unwinds,
        vm.jit_poly_calls,
    )


def run(program, config=JIT, cache=None):
    vm = Interpreter(program, config, cache)
    vm.run()
    return vm


def method_named(vm, name):
    return vm.code_cache.methods[vm.program.function_named(name).index]


def compiled(method) -> bool:
    return method.jit is not None and method.jit.source is not None


def on_trampoline(method) -> bool:
    return method.jit is not None and method.jit.source is None


# -- only hot methods are compiled ------------------------------------------------


def test_never_called_methods_are_never_compiled():
    """The compile_wide shape: ~150 functions, a few dozen executed for
    ~10k steps.  A count gate: at most a tenth of the methods compile,
    and none that never ran."""
    program = generate_program(
        GeneratorConfig(num_classes=24, methods_per_class=12, loop_iterations=50, seed=3)
    )
    vm = run(program)
    methods = vm.code_cache.methods
    assert len(methods) >= 150
    assert vm.methods_executed < len(methods) // 2
    assert vm.jit_compiles <= len(methods) // 10
    assert vm.jit_compiles <= vm.methods_executed
    for method in methods:
        if not vm._seen[method.index]:
            assert on_trampoline(method), method
    assert vm.code_cache.jit_methods() == (len(vm.jit_manager.compiled), len(methods))
    assert observables(vm) == observables(run(program, PLAIN))
    assert_exit_accounting(vm)


CALLS = """
def leaf(x: int): int {{ return x + 1; }}
def worker(x: int): int {{ return leaf(x) + leaf(x + 1); }}
def main() {{
  var total = 0;
  for (var i = 0; i < {calls}; i = i + 1) {{ total = total + worker(i); }}
  print(total);
}}
"""


def test_threshold_semantics():
    """N-1 entries leave a method interpreted; the N-th compiles it and
    runs the fresh body at once."""
    below = run(compile_source(CALLS.format(calls=PROMOTE_THRESHOLD - 1)))
    worker = method_named(below, "worker")
    assert worker.leaf is None  # entered through a frame, not a leaf template
    assert on_trampoline(worker)
    assert below.jit_manager.heat[worker] == PROMOTE_THRESHOLD - 1
    assert below.jit_entries == 0  # main got hot on its back-edges: OSR only

    at = run(compile_source(CALLS.format(calls=PROMOTE_THRESHOLD)))
    assert compiled(method_named(at, "worker"))
    assert at.jit_entries >= 1
    assert_exit_accounting(at)


HOT_MAIN = """
def main() {
  var total = 0;
  for (var i = 0; i < 5000; i = i + 1) { total = (total + i * 3) % 9973; }
  print(total);
}
"""


def test_once_called_main_is_promoted_through_osr():
    program = compile_source(HOT_MAIN)
    vm = run(program)
    assert compiled(method_named(vm, "main"))
    assert vm.jit_compiles == 1
    assert vm.jit_entries == 0 and vm.jit_osr_entries > 0
    assert_exit_accounting(vm)
    assert observables(vm) == observables(run(program, PLAIN))


LOOP_AT_ZERO = """
def spin(n: int): int {
  while (n > 0) { n = n - 1; }
  return n;
}
def main() {
  print(spin(4000));
  print(spin(4000));
  print(spin(0));
}
"""


def test_loop_head_at_pc_zero_keeps_entry_and_osr_apart():
    """A back-edge to pc 0 and a method entry both reach the stub with
    ``frame.pc == 0``; the method carries an OSR-only stub so each
    bounce undoes the counter its arm bumped."""
    program = compile_source(LOOP_AT_ZERO)
    vm = Interpreter(program, JIT)
    vm.jit_manager = manager = JitManager(vm)
    manager.attach()
    spin = method_named(vm, "spin")
    assert jit_manager._loop_head_at_zero(spin)
    assert on_trampoline(spin) and not spin.jit.entry0
    assert method_named(vm, "main").jit.entry0
    vm.run()
    assert compiled(spin)
    # First call: promoted on a back-edge.  Later calls enter at pc 0.
    assert vm.jit_osr_entries >= 1 and vm.jit_entries >= 2
    assert_exit_accounting(vm)
    assert observables(vm) == observables(run(program, PLAIN))


def test_bounces_leave_no_trace_in_the_counters():
    program = compile_source(CALLS.format(calls=PROMOTE_THRESHOLD - 1))
    vm = Interpreter(program, JIT)
    vm.jit_manager = JitManager(vm, threshold=1_000_000)
    vm.jit_manager.attach()
    vm.run()
    assert sum(vm.jit_manager.heat.values()) > PROMOTE_THRESHOLD
    assert jit_counters(vm) == (0,) * 11


def test_ineligible_method_drops_its_stub_after_one_attempt(monkeypatch):
    monkeypatch.setattr(jit_compiler, "JIT_MAX_CODE", 3)  # nothing fits
    attempts = []
    real = jit_manager.compile_into

    def counting(vm, method):
        attempts.append(method.index)
        return real(vm, method)

    monkeypatch.setattr(jit_manager, "compile_into", counting)
    program = compile_source(CALLS.format(calls=4 * PROMOTE_THRESHOLD))
    vm = run(program)
    worker, main = method_named(vm, "worker"), method_named(vm, "main")
    assert sorted(attempts) == sorted([worker.index, main.index])
    assert worker.jit is None and main.jit is None
    assert vm.jit_manager.attempts[worker] == MAX_ATTEMPTS
    assert jit_counters(vm) == (0,) * 11
    assert vm.code_cache.jit_methods() == (0, len(vm.code_cache.methods) - 2)
    assert observables(vm) == observables(run(program, PLAIN))


# -- determinism and warm guards --------------------------------------------------


def test_jit_counters_repeat_exactly():
    program = program_for("jess", "tiny")
    first, second = run(program), run(program)
    assert first.jit_compiles > 0
    assert jit_counters(first) == jit_counters(second)
    assert first.code_cache.jit_methods() == second.code_cache.jit_methods()


def test_first_compile_bakes_warm_guards_on_jess(monkeypatch):
    """Promotion happens after the inline caches quickened, so guards
    are baked from a warm snapshot: ``main`` compiles once, already with
    its steady signature.  What the refresh hook still redoes is real
    growth after promotion (``Network.assert`` meets new receiver
    classes at tick 1) — compiling from cold caches redoes far more."""
    baked = {}
    real = jit_manager.compile_into

    def recording(vm, method):
        baked.setdefault(method, []).append(ic_signature(method))
        return real(vm, method)

    monkeypatch.setattr(jit_manager, "compile_into", recording)
    program = program_for("jess", "small")
    vm = run(program)
    assert vm.ticks > 5
    main = method_named(vm, "main")
    assert baked[main] == [ic_signature(main)] != [()]
    promoted = vm.jit_manager.compiled
    assert list(promoted) == list(baked)
    # RangeNode.test, a branching accessor, has no call site to guard:
    # it takes the generic calling sequence and is promoted like any
    # other method once hot.
    assert all(
        sigs[0] != () for method, sigs in baked.items() if ic_signature(method)
    )
    assert baked[method_named(vm, "RangeNode.test")] == [()]
    assert vm.jit_compiles <= vm.methods_executed
    refreshes = vm.jit_compiles - len(promoted)
    assert refreshes <= 1
    for method in promoted:
        assert method.jit.ic_sig == ic_signature(method)
    assert_exit_accounting(vm)

    cold = Interpreter(program, JIT)
    cold.jit_manager = JitManager(cold, threshold=1)
    cold.jit_manager.attach()
    cold.run()
    assert cold.jit_compiles - len(cold.jit_manager.compiled) > refreshes


# -- one code cache, several runs -------------------------------------------------

SHARED = """
def leaf(x: int): int {{ return x + 1; }}
def worker(x: int): int {{ return leaf(x) + leaf(x + 1); }}
def main() {{
  var total = 0;
  for (var i = 0; i < 3000; i = i + 1) {{ total = (total + i) % 9973; }}
  for (var j = 0; j < {calls}; j = j + 1) {{ total = total + worker(j); }}
  print(total);
}}
"""


def shared_cache(program):
    return CodeCache(program, JIT.cost_model, fuse=JIT.fuse, ic=JIT.ic)


def guest_view(vm):
    """The observables a warm shared cache leaves alone (first-execution
    bookkeeping — methods seen, IC misses — happened in the first run)."""
    return observables(vm)[:5]


def test_stub_acts_through_the_running_vm():
    """A stub outlives the run that installed it; the next run on the
    same cache counts and promotes on its own manager and counters."""
    program = compile_source(SHARED.format(calls=PROMOTE_THRESHOLD - 2))
    cache = shared_cache(program)
    first = run(program, JIT, cache)
    worker = method_named(first, "worker")
    assert on_trampoline(worker) and first.jit_compiles == 1  # main only
    before = jit_counters(first)

    second = Interpreter(program, JIT, cache)
    second.jit_manager = JitManager(second, threshold=1)
    second.jit_manager.attach()
    second.run()
    assert compiled(worker)
    assert second.jit_compiles == 1 and second.jit_entries >= 1
    assert worker not in first.jit_manager.compiled
    assert worker in second.jit_manager.compiled
    assert jit_counters(first) == before
    assert_exit_accounting(second)
    assert guest_view(second) == guest_view(run(program, PLAIN))


def test_attach_keeps_current_bodies_and_restubs_stale_ones():
    program = compile_source(SHARED.format(calls=PROMOTE_THRESHOLD - 2))
    cache = shared_cache(program)
    first = run(program, JIT, cache)
    main = method_named(first, "main")
    body = main.jit
    assert body.source is not None

    same_hooks = Interpreter(program, JIT, cache)
    same_hooks.jit_manager = JitManager(same_hooks)
    same_hooks.jit_manager.attach()
    assert main.jit is body
    assert main in same_hooks.jit_manager.compiled  # adopted for refresh
    same_hooks.run()
    assert same_hooks.jit_compiles == 0 and same_hooks.jit_entries >= 1
    assert_exit_accounting(same_hooks)

    hooked = Interpreter(program, JIT, cache)
    ExhaustiveProfiler().install(hooked)  # call observer: another signature
    hooked.jit_manager = JitManager(hooked)
    hooked.jit_manager.attach()
    assert on_trampoline(main) and main.jit.sig == vm_jit_sig(hooked) != body.sig
    hooked.run()
    assert compiled(main) and main.jit.sig == vm_jit_sig(hooked)
    assert_exit_accounting(hooked)
    assert list(hooked.output) == list(first.output)
    assert hooked.steps == first.steps


def test_leftover_stub_without_a_manager_removes_itself():
    """A run with the JIT off on a cache an earlier JIT run stubbed."""
    program = compile_source(SHARED.format(calls=PROMOTE_THRESHOLD - 2))
    cache = shared_cache(program)
    first = run(program, JIT, cache)
    worker = method_named(first, "worker")
    assert on_trampoline(worker)
    second = run(program, PLAIN, cache)
    assert second.jit_manager is None
    assert worker.jit is None
    assert second.jit_compiles == 0
    assert_exit_accounting(second)
    assert guest_view(second) == guest_view(run(program, PLAIN))


REPLACED = """
def work(n: int): int {
  var t = 0;
  for (var i = 0; i < n; i = i + 1) { t = (t + i) % 9973; }
  return t;
}
def main() {
  var total = 0;
  for (var k = 0; k < 3000; k = k + 1) { total = (total + work(40)) % 9973; }
  print(total);
}
"""


@pytest.mark.parametrize("config", [JIT, PLAIN], ids=["jit", "no-jit"])
def test_installed_replacement_goes_back_on_the_trampoline(config):
    """``CodeCache.install`` mid-run publishes a CompiledMethod with no
    JIT record; the next tick stubs it and it earns a body again."""
    program = compile_source(REPLACED)
    function = program.function_named("work")
    replaced = []

    def replace_once(vm):
        if vm.ticks == 3:
            replaced.append(vm.code_cache.methods[function.index])
            vm.code_cache.install(function, 0)

    vm = Interpreter(program, config)
    vm.tick_hook = replace_once
    vm.run()
    assert vm.ticks > 6 and len(replaced) == 1
    fresh = vm.code_cache.methods[function.index]
    assert fresh is not replaced[0]
    if config.jit:
        assert compiled(replaced[0]) and compiled(fresh)
        assert fresh in vm.jit_manager.compiled
        assert replaced[0] not in vm.jit_manager.compiled
        assert_exit_accounting(vm)
    else:
        # The reference the JIT run must match bit for bit.
        jit_vm = Interpreter(program, JIT)
        jit_vm.tick_hook = replace_once
        replaced.clear()
        jit_vm.run()
        assert observables(jit_vm) == observables(vm)


def test_direct_call_site_never_enters_a_replaced_callees_body():
    """``main`` calls ``work`` from generated code, body to body.  After
    ``CodeCache.install`` replaces ``work`` the site resolves to the
    fresh ``CompiledMethod`` — no body yet, so it is a call exit until
    the replacement has been promoted — and never to the stale body."""
    program = compile_source(REPLACED)
    function = program.function_named("work")
    seen = {}

    def stale(*_args):
        raise AssertionError("a call entered the replaced method's body")

    def replace_once(vm):
        if vm.ticks == 3:
            old = vm.code_cache.methods[function.index]
            assert compiled(old) and old.jit.direct is not None
            seen["direct_calls"] = vm.jit_direct_calls
            seen["call_exits"] = vm.jit_call_exits
            # In-flight frames of the old version may still OSR into its
            # body through ``fn``; a new call may not reach it.
            old.jit.direct = stale
            vm.code_cache.install(function, 0)

    vm = Interpreter(program, JIT)
    vm.tick_hook = replace_once
    vm.run()
    assert seen["direct_calls"] > 0
    fresh = vm.code_cache.methods[function.index]
    assert compiled(fresh) and fresh.jit.direct is not None
    assert vm.jit_call_exits > seen["call_exits"]  # exits while it re-earned a body
    assert vm.jit_direct_calls > seen["direct_calls"] + 1000  # then direct again
    assert_exit_accounting(vm)

    plain = Interpreter(program, PLAIN)
    plain.tick_hook = lambda vm: vm.ticks == 3 and vm.code_cache.install(function, 0)
    plain.run()
    assert observables(vm) == observables(plain)


LEAF_REPLACED = """
def step(x: int): int { return (x * 7 + 3) % 9973; }
def main() {
  var t = 0;
  for (var i = 0; i < 60000; i = i + 1) { t = step(t); }
  print(t);
}
"""


def test_replacing_an_inlined_leaf_recompiles_its_caller():
    """``main``'s body expands the pure leaf ``step`` under an identity
    guard on ``step``'s template.  ``CodeCache.install`` gives ``step``
    a new template — what the adaptive controller does at every level-1
    or level-2 install — so the next tick recompiles ``main`` against
    it; the stale guard would make every later call a call exit."""
    program = compile_source(LEAF_REPLACED)
    function = program.function_named("step")
    seen = {}

    def replace_once(vm):
        if vm.ticks == 3:
            main = method_named(vm, "main")
            assert compiled(main)
            seen["main"] = main.jit
            seen["leaf_calls"] = vm.jit_leaf_calls
            vm.code_cache.install(function, 0)

    vm = Interpreter(program, JIT)
    vm.tick_hook = replace_once
    vm.run()
    assert vm.ticks > 6 and seen["leaf_calls"] > 1000
    main = method_named(vm, "main")
    assert main.jit is not seen["main"]
    assert main.jit.ic_sig == ic_signature(main)
    assert vm.jit_call_exits < 5
    assert vm.jit_leaf_calls > seen["leaf_calls"] + 20_000
    assert_exit_accounting(vm)

    plain = Interpreter(program, PLAIN)
    plain.tick_hook = lambda vm: vm.ticks == 3 and vm.code_cache.install(function, 0)
    plain.run()
    assert observables(vm) == observables(plain)


# -- polymorphic tails: callees resolved at run time ------------------------------


def _mix(classes, iterations):
    """Every ``f`` branches, so none has a leaf template and the tail
    calls it body to body."""
    body = "if (x % 2 == 0) { return x + {k}; } return x - {k};"
    return compile_source(receiver_mix_source(classes, iterations, body))


def test_tail_callee_still_on_the_trampoline_is_a_call_exit():
    """``main`` gets hot on its 32nd back-edge, by which time its site
    is megamorphic, so its first body has the tail; each of the sixteen
    callees has been entered twice.  Until a callee's own 32nd entry
    the tail finds a stub where a body would be (``_j.direct is None``)
    and leaves the call to the interpreter, whose entry is the bounce
    that counts; afterwards the same site calls the fresh body."""
    program = _mix(16, 2000)
    vm = run(program)
    (site,) = [row for row in jit_compiler.exit_sites(vm) if row[2] == "call"]
    assert site[0] == "main"
    # Entries 3 to 32 of each callee, plus a tick inside a direct call.
    bounced = 16 * (PROMOTE_THRESHOLD - 2)
    assert bounced <= site[3] <= bounced + vm.ticks
    assert vm.jit_compiles == 17
    assert vm.jit_poly_calls > 1000
    assert vm.jit_guard_exits == 0
    assert_exit_accounting(vm)
    assert observables(vm) == observables(run(program, PLAIN))


@pytest.mark.parametrize("classes", [4, 16], ids=["overflow-row", "flat-table"])
def test_tail_sees_an_installed_replacement_on_the_next_call(classes):
    """The tail reads its callee through the live overflow row
    (refreshed in place by ``install``) or through ``cache.methods``,
    never from the snapshot: after ``CodeCache.install`` replaces the
    last class's ``f`` the very next call resolves to the fresh
    ``CompiledMethod`` — no body yet, so a call exit until it has been
    promoted again — and never enters the stale body."""
    program = _mix(classes, 24000)
    function = program.function_named(f"V{classes - 1}.f")
    seen = {}

    def stale(*_args):
        raise AssertionError("the tail entered the replaced method's body")

    def replace_once(vm):
        if vm.ticks == 3:
            old = vm.code_cache.methods[function.index]
            assert compiled(old) and old.jit.direct is not None
            seen["poly_calls"] = vm.jit_poly_calls
            seen["call_exits"] = vm.jit_call_exits
            old.jit.direct = stale
            vm.code_cache.install(function, 0)

    vm = Interpreter(program, JIT)
    vm.tick_hook = replace_once
    vm.run()
    assert vm.ticks > 6 and seen["poly_calls"] > 0
    fresh = vm.code_cache.methods[function.index]
    assert compiled(fresh) and fresh.jit.direct is not None
    assert vm.jit_call_exits > seen["call_exits"]
    assert vm.jit_poly_calls > seen["poly_calls"] + 1000
    assert_exit_accounting(vm)

    plain = Interpreter(program, PLAIN)
    plain.tick_hook = lambda vm: vm.ticks == 3 and vm.code_cache.install(function, 0)
    plain.run()
    assert observables(vm) == observables(plain)
