"""A method's host code is built on its first entry, unobservably.

:class:`repro.vm.runtime.CodeCache` builds a function's level-0
``CompiledMethod`` the first time something needs it.  Every guest
observable must be what a cache with every method built up front gives
(output, virtual time, steps, ticks, calls, DCG, telemetry events), and
so must every host counter but the three that count built methods
(``fusion.sites``, ``jit.methods_eligible``) or host seconds
(``jit.compile_s``).  The tests below run each benchsuite program both
ways under every kind of run, then take each route a first entry can
come by on its own.
"""

from __future__ import annotations

import sys

import pytest

from repro.adaptive.controller import AdaptiveSystem
from repro.benchsuite.suite import benchmark_names, program_for
from repro.frontend.codegen import compile_source
from repro.harness.runner import run_steady_state
from repro.inlining.new_inliner import NewJikesInliner
from repro.profiling.cbs import CBSProfiler
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.timer_sampler import TimerProfiler
from repro.telemetry import hostcounters
from repro.telemetry.tracer import Tracer
from repro.vm import ic
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter
from repro.vm.jit import JitManager
from repro.vm.runtime import CodeCache
from tests.helpers import force_jit

#: Host rows that count built methods or host time, nothing else.
BUILD_ROWS = {"fusion.sites", "jit.methods_eligible", "jit.compile_s"}


def _cbs():
    return CBSProfiler(stride=3, samples_per_tick=16, seed=7)


#: Mode -> (config, profiler factory, traced, prepare(vm) before run).
MODES = {
    "plain": (jikes_config(), None, True, None),
    "cbs": (jikes_config(), _cbs, True, None),
    "timer": (jikes_config(), TimerProfiler, True, None),
    "exhaustive": (jikes_config(), ExhaustiveProfiler, True, None),
    "jit-threshold-1": (jikes_config(jit=True), None, False, force_jit),
    "jit": (jikes_config(jit=True), None, False, None),
    "adaptive": (jikes_config(jit=True), _cbs, False, "adaptive"),
}


def _observed(program, mode: str, built: bool) -> dict:
    config, make_profiler, traced, prepare = MODES[mode]
    cache = CodeCache(program, config.cost_model, fuse=config.fuse, ic=config.ic)
    if built:
        cache.build_all()
    vm = Interpreter(program, config, cache)
    profiler = make_profiler() if make_profiler is not None else None
    if isinstance(profiler, ExhaustiveProfiler):
        profiler.install(vm)
    elif profiler is not None:
        vm.attach_profiler(profiler)
    tracer = Tracer() if traced else None
    if tracer is not None:
        vm.attach_telemetry(tracer)
    runs = 1
    if prepare == "adaptive":
        AdaptiveSystem(program, NewJikesInliner(program)).install(vm)
        runs = 2
    elif prepare is not None:
        prepare(vm)
    counters = []
    for _ in range(runs):
        vm.run()
        counters.append(
            {k: v for k, v in hostcounters.read(vm).items() if k not in BUILD_ROWS}
        )
    return {
        "output": list(vm.output),
        "time": vm.time,
        "steps": vm.steps,
        "ticks": vm.ticks,
        "calls": vm.call_count,
        "methods": vm.methods_executed,
        "dcg": None if profiler is None else profiler.dcg.edges(),
        "events": None
        if tracer is None
        else [(type(e).__name__, e.ts, e.args()) for e in tracer.events],
        "host": counters,
        "compile_time": cache.compile_time,
        "compile_count": cache.compile_count,
        "code_size": sum(cache._sizes),
    }


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("name", benchmark_names())
def test_first_entry_build_is_unobservable(name, mode):
    program = program_for(name, "tiny")
    assert _observed(program, mode, built=False) == _observed(program, mode, built=True)


def test_harness_steady_state_columns_are_the_prebuilt_ones(monkeypatch):
    """``run_steady_state`` reports J9's compile-time column and the
    compile count off the cache: one level-0 charge per function at
    construction, whichever methods ever run, plus the recompiles."""
    from repro.harness import runner

    def steady():
        program = program_for("jess", "tiny")
        return runner.run_steady_state(
            "jess", "tiny", "j9", NewJikesInliner(program), _cbs(), iterations=3
        )

    lazy = steady()
    level0 = runner.jit_only_cache

    def prebuilt(*args, **kwargs):
        cache = level0(*args, **kwargs)
        cache.build_all()
        return cache

    monkeypatch.setattr(runner, "jit_only_cache", prebuilt)
    assert steady() == lazy
    assert lazy.compile_count > len(program_for("jess", "tiny").functions)


# -- each route a first entry comes by ------------------------------------------------

CALLS = """
class A { def f(x: int): int { return x + 1; } }
class B extends A { def f(x: int): int { return x + 2; } }
class C extends A { def f(x: int): int { return x + 3; } }
def once(x: int): int { return x * 2; }
def never(x: int): int { return x - 1; }
def main() {
  var objs = new A[3];
  objs[0] = new A(); objs[1] = new B(); objs[2] = new C();
  var t = once(3);
  for (var i = 0; i < 40; i = i + 1) { t = (t + objs[i % 3].f(t)) % 1000; }
  print(t);
}
"""


def _index(program, name: str) -> int:
    return program.function_named(name).index


def _routed(program, config, prepare=None):
    """Run ``program``; each method's name -> the host function that
    built it (``run``, the loop, the IC slow path, generated code or
    the compiler), and the run's observables next to a prebuilt run's."""
    vm = Interpreter(program, config)
    cache = vm.code_cache
    build = cache.current
    routes: dict[str, str] = {}

    def current(index):
        if cache.built[index] is None:
            name = program.functions[index].qualified_name
            routes[name] = sys._getframe(1).f_code.co_name
        return build(index)

    cache.current = current
    reference = Interpreter(program, config)
    reference.code_cache.build_all()
    for each in (vm, reference):
        if prepare is not None:
            prepare(each)
        each.run()
    assert (vm.output, vm.time, vm.steps, vm.ticks) == (
        reference.output, reference.time, reference.steps, reference.ticks
    )
    return vm, routes


def test_nothing_but_the_charge_happens_at_construction():
    program = compile_source(CALLS)
    cache = CodeCache(program, jikes_config().cost_model)
    assert cache.built == [None] * len(program.functions)
    assert cache.fused_sites == 0
    assert cache.compile_count == len(program.functions)
    assert cache.compile_time == 2 * program.total_bytecode_size()
    assert sum(cache._sizes) == program.total_bytecode_size()


@pytest.mark.parametrize("ic_on", [True, False], ids=["ic", "raw"])
def test_raw_static_and_virtual_calls_and_ic_binds(ic_on):
    """The entry method is built by ``run``; a raw static or virtual
    call builds its callee in the loop's arm (with inline caches, the
    site's first execution is that raw arm); an inline cache binds its
    second and third classes in ``_ic_virtual_slow``."""
    vm, routes = _routed(compile_source(CALLS), jikes_config(ic=ic_on))
    bind = "_ic_virtual_slow" if ic_on else "_loop"
    assert routes == {
        "main": "run", "once": "_loop", "A.f": "_loop", "B.f": bind, "C.f": bind,
    }
    assert vm.code_cache.built[_index(vm.program, "never")] is None


def _widening(classes: int, step: int = 150) -> str:
    """One virtual call site whose receiver mix widens by a class every
    ``step`` iterations, so late classes first arrive at a megamorphic
    site, after a compiled caller has its polymorphic tail."""
    lines = []
    for k in range(classes):
        head = "class V0" if k == 0 else f"class V{k} extends V0"
        lines.append(f"{head} {{ def f(x: int): int {{ return x + {k + 1}; }} }}")
    lines += ["def main() {", f"  var objs = new V0[{classes}];"]
    lines += [f"  objs[{k}] = new V{k}();" for k in range(classes)]
    lines += [
        "  var t = 0;",
        f"  for (var i = 0; i < {classes * step + 1500}; i = i + 1) {{",
        f"    var width = 1 + i / {step};",
        f"    if (width > {classes}) {{ width = {classes}; }}",
        "    t = (t + objs[i % width].f(t)) % 65521;",
        "  }",
        "  print(t);",
        "}",
    ]
    return "\n".join(lines)


@pytest.mark.parametrize("jit", [False, True], ids=["loop", "polymorphic-tail"])
def test_megamorphic_lookup_builds_its_callee(jit):
    """Past ``POLY_LIMIT`` classes a site stops binding and resolves the
    rest through the flat tables: in the loop's arm, or in a compiled
    caller's polymorphic tail."""
    classes = ic.POLY_LIMIT + 3
    vm, routes = _routed(
        compile_source(_widening(classes)),
        jikes_config(jit=jit, timer_interval=2003),
        force_jit if jit else None,
    )
    assert vm.code_cache.megamorphic_sites == 1
    late = {routes[f"V{k}.f"] for k in range(ic.POLY_LIMIT + 1, classes)}
    if jit:
        assert vm.jit_poly_calls > 0
        assert len(late) == 1 and late.pop().startswith("_jit_")
    else:
        assert late == {"_loop"}


DIRECT = """
def leafy(x: int): int {
  var s = 0;
  for (var j = 0; j < 3; j = j + 1) { s = s + x; }
  return s;
}
def main() {
  var t = 0;
  for (var i = 0; i < 60; i = i + 1) {
    if (i > 50) { t = (t + leafy(i)) % 1000; }
  }
  print(t);
}
"""


def test_compiled_caller_builds_its_constant_callee_at_compile_time():
    """``main`` is compiled at its first entry, before its call to
    ``leafy`` ever ran: the compiler builds the callee when it binds the
    raw site, so generated code reads a built method and enters it."""
    vm, routes = _routed(compile_source(DIRECT), jikes_config(jit=True), force_jit)
    assert routes == {"main": "run", "leafy": "current"}
    assert vm.jit_direct_calls > 0


def test_install_of_a_never_entered_function_builds_only_the_new_version():
    program = compile_source(CALLS)
    vm = Interpreter(program, jikes_config())
    cache = vm.code_cache
    never = program.function_named("never")
    before = cache.compile_time
    method = cache.install(never, 2)
    assert cache.built[never.index] is method and method.opt_level == 2
    assert cache.compile_time == before + 18 * never.bytecode_size()
    assert cache.compile_count == len(program.functions) + 1
    assert cache.current(never.index) is method
    vm.run()
    assert cache.built[never.index] is method


def test_a_method_built_after_the_manager_attached_gets_its_trampoline():
    program = compile_source(CALLS)
    vm = Interpreter(program, jikes_config(jit=True))
    vm.jit_manager = JitManager(vm)
    vm.jit_manager.attach()
    method = vm.code_cache.current(_index(program, "never"))
    assert method.jit is not None and method.jit.source is None


TICKED = """
def work(x: int): int { return x * 3 + 1; }
def main() {
  var t = 0;
  for (var i = 0; i < 3000; i = i + 1) { t = (t + work(i)) % 10007; }
  print(t);
}
"""


def test_a_tick_on_the_first_instruction_of_a_just_built_method():
    """The timer interval is set so the first tick lands on ``work``'s
    first instruction, right after its first call built it; the run, and
    a CBS profile of it, are what a prebuilt cache gives."""
    program = compile_source(TICKED)
    work = _index(program, "work")
    probe = Interpreter(program, jikes_config())
    entered: list[int] = []

    def on_call(caller, pc, callee):
        if callee == work and not entered:
            entered.append(probe.time)

    probe.add_call_observer(on_call)
    probe.run()
    first_cost = jikes_config().cost_model.cost_array()[program.functions[work].code[0].op]
    config = jikes_config(timer_interval=entered[0] + first_cost)

    def observed(built: bool, profiled: bool):
        vm = Interpreter(program, config)
        if built:
            vm.code_cache.build_all()
        ticks: list = []
        vm.chain_tick_hook(
            lambda vm: ticks.append((vm.frames[-1].method.index, vm.frames[-1].pc))
        )
        profiler = _cbs() if profiled else None
        if profiler is not None:
            vm.attach_profiler(profiler)
        vm.run()
        dcg = None if profiler is None else profiler.dcg.edges()
        return ticks[0], (vm.output, vm.time, vm.ticks, ticks, dcg)

    for profiled in (False, True):
        first, lazy = observed(False, profiled)
        assert first == (work, 0)
        assert observed(True, profiled)[1] == lazy
