"""Adaptive optimization system tests."""

import pytest

from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.adaptive.modes import jit_only_cache
from repro.adaptive.organizer import DecayingDCGOrganizer
from repro.frontend.codegen import compile_source
from repro.profiling.cbs import CBSProfiler
from repro.profiling.dcg import DCG
from repro.inlining.new_inliner import NewJikesInliner
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter

from collections import Counter

HOT_LOOP = """
class Shape { def area(): int { return 4; } }
class Circle extends Shape { def area(): int { return 3; } }
def helper(x: int): int { return x % 97 + 1; }
def main() {
  var s: Shape = new Circle();
  var t = 0;
  for (var i = 0; i < 30000; i = i + 1) { t = t + s.area() + helper(i); }
  print(t);
}
"""


def adaptive_vm(source=HOT_LOOP, config=None, **adaptive_kwargs):
    program = compile_source(source)
    vm_config = config if config is not None else jikes_config()
    cache = jit_only_cache(program, vm_config.cost_model, level=0)
    vm = Interpreter(program, vm_config, cache)
    vm.attach_profiler(CBSProfiler(stride=3, samples_per_tick=16))
    adaptive = AdaptiveSystem(
        program, NewJikesInliner(program), AdaptiveConfig(**adaptive_kwargs)
    )
    adaptive.install(vm)
    return vm, adaptive, program


def test_hot_methods_promoted():
    vm, adaptive, program = adaptive_vm()
    vm.run()
    main_index = program.function_index("main")
    assert vm.code_cache.opt_level(main_index) >= 1
    assert adaptive.events


def test_promotion_goes_through_levels():
    vm, adaptive, program = adaptive_vm()
    vm.run()
    main_events = [
        e for e in adaptive.events
        if e.function_index == program.function_index("main")
    ]
    levels = [e.level for e in main_events]
    assert levels[0] == 1
    assert 2 in levels


def test_recompilation_speeds_up_iterations():
    vm, adaptive, _ = adaptive_vm()
    times = []
    previous = 0
    for _ in range(6):
        vm.run()
        times.append(vm.time - previous)
        previous = vm.time
    assert times[-1] < times[0]


def test_output_unchanged_by_adaptation():
    plain = Interpreter(compile_source(HOT_LOOP), jikes_config())
    plain.run()
    vm, _, _ = adaptive_vm()
    vm.run()
    assert vm.output == plain.output


def test_max_compiles_per_method_enforced():
    vm, adaptive, program = adaptive_vm(max_compiles_per_method=2)
    for _ in range(6):
        vm.run()
    counts = Counter(e.function_index for e in adaptive.events)
    assert all(count <= 2 for count in counts.values())


def test_reoptimization_on_sample_growth():
    vm, adaptive, program = adaptive_vm(reoptimize_growth=1.5)
    for _ in range(8):
        vm.run()
    main_index = program.function_index("main")
    level2 = [
        e for e in adaptive.events
        if e.function_index == main_index and e.level == 2
    ]
    assert len(level2) >= 2  # initial level-2 compile plus a re-optimize


def test_use_profile_false_still_compiles_statically():
    vm, adaptive, program = adaptive_vm(use_profile=False)
    vm.run()
    assert any(e.level == 2 for e in adaptive.events)


def test_compile_time_accumulates():
    vm, adaptive, _ = adaptive_vm()
    start = vm.code_cache.compile_time
    vm.run()
    assert vm.code_cache.compile_time > start


def test_double_install_rejected():
    vm, adaptive, program = adaptive_vm()
    with pytest.raises(RuntimeError):
        AdaptiveSystem(program, NewJikesInliner(program)).install(vm)


# -- jit-only mode ---------------------------------------------------------------


def test_jit_only_level0_inlines_trivial():
    source = """
    class A { var x: int; def getX(): int { return this.x; } }
    def main() {
      var a = new A();
      var t = 0;
      for (var i = 0; i < 100; i = i + 1) { t = t + a.getX(); }
      print(t);
    }
    """
    program = compile_source(source)
    config = jikes_config()
    level0 = jit_only_cache(program, config.cost_model, level=0)
    vm = Interpreter(program, config, level0)
    vm.run()
    # The trivial getter was inlined: only the constructor-less NEW remains,
    # so call_count is far below the 100 loop calls.
    assert vm.call_count < 10
    assert vm.output == [0]


def test_jit_only_level_raw_keeps_all_calls():
    source = """
    class A { var x: int; def getX(): int { return this.x; } }
    def main() {
      var a = new A();
      var t = 0;
      for (var i = 0; i < 100; i = i + 1) { t = t + a.getX(); }
      print(t);
    }
    """
    program = compile_source(source)
    config = jikes_config()
    raw = jit_only_cache(program, config.cost_model, level=99)
    vm = Interpreter(program, config, raw)
    vm.run()
    assert vm.call_count >= 100


def test_jit_only_level1_faster_than_level0():
    # 'medium' is too big for trivial inlining (level 0) but within the
    # static policy's threshold (level 1).
    source = """
    def medium(x: int): int {
      var a = x + 1; var b = a * 2; var c = b + a;
      return c % 1021;
    }
    def main() {
      var t = 0;
      for (var i = 0; i < 5000; i = i + 1) { t = medium(t + i); }
      print(t);
    }
    """
    program = compile_source(source)
    config = jikes_config()
    vm0 = Interpreter(program, config, jit_only_cache(program, config.cost_model, 0))
    vm0.run()
    vm1 = Interpreter(program, config, jit_only_cache(program, config.cost_model, 1))
    vm1.run()
    assert vm1.output == vm0.output
    assert vm1.time < vm0.time


# -- organizers --------------------------------------------------------------------


def test_decaying_organizer_applies_decay_periodically():
    dcg = DCG()
    dcg.record(0, 0, 1, 100.0)
    organizer = DecayingDCGOrganizer(dcg, factor=0.5, period=10)
    for _ in range(9):
        organizer.on_tick()
    assert dcg.total_weight == 100.0
    organizer.on_tick()
    assert dcg.total_weight == 50.0


def test_decaying_organizer_validation():
    with pytest.raises(ValueError):
        DecayingDCGOrganizer(DCG(), factor=0.0)
    with pytest.raises(ValueError):
        DecayingDCGOrganizer(DCG(), period=0)


def test_extend_guard_chains_flag_respected():
    from repro.adaptive.controller import AdaptiveConfig

    vm, adaptive, program = adaptive_vm(extend_guard_chains=False)
    for _ in range(6):
        vm.run()
    # No plan anywhere carries extra guard targets.
    for plan in adaptive._last_plan.values():
        stack = list(plan.decisions)
        while stack:
            decision = stack.pop()
            assert decision.extra_targets == []
            stack.extend(decision.nested)


def test_dcg_decay_applied_on_ticks():
    from repro.adaptive.controller import AdaptiveConfig

    vm, adaptive, _ = adaptive_vm(dcg_decay_factor=0.5, dcg_decay_period=5)
    vm.run()
    profiler = vm.profiler
    undecayed_vm, _, _ = adaptive_vm()
    undecayed_vm.run()
    # Decayed profile carries strictly less total weight than the
    # undecayed one over the same run.
    assert profiler.dcg.total_weight < undecayed_vm.profiler.dcg.total_weight
