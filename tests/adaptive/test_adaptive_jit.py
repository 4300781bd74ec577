"""Adaptive runs with the template JIT on are bit-identical to adaptive
runs with it off.

The adaptive controller installs level-1 and level-2 bodies; level 3 is
the JIT manager's trampoline, which puts every installed body back on
its counter.  So an adaptive JIT run is a plain JIT run whose code
cache keeps changing under it — and must still match the interpreted
adaptive run in every observable, compilation decisions included.
Every case must also reach generated code and recompile at least one
method: a run without both proves nothing.  The tick period is a tenth
of the default so that the controller acts on ``tiny`` inputs too.
"""

from __future__ import annotations

import pytest

from repro.adaptive.controller import AdaptiveSystem
from repro.adaptive.modes import jit_only_cache
from repro.benchsuite.suite import program_for
from repro.inlining.new_inliner import NewJikesInliner
from repro.profiling.cbs import CBSProfiler
from repro.profiling.timer_sampler import TimerProfiler
from repro.vm.config import config_named
from repro.vm.interpreter import Interpreter
from tests.vm.test_jit_deopt import assert_exit_accounting

TIMER_INTERVAL = 10_000

PROFILERS = {
    "cbs": lambda: CBSProfiler(stride=3, samples_per_tick=16),
    "timer": TimerProfiler,
}


def adaptive_run(program, vm_name, profiler, jit):
    config = config_named(vm_name, jit=jit, timer_interval=TIMER_INTERVAL)
    cache = jit_only_cache(
        program, config.cost_model, level=0, fuse=config.fuse, ic=config.ic
    )
    vm = Interpreter(program, config, cache)
    vm.attach_profiler(PROFILERS[profiler]())
    adaptive = AdaptiveSystem(program, NewJikesInliner(program))
    adaptive.install(vm)
    vm.run()
    observables = {
        "output": list(vm.output),
        "counters": (vm.time, vm.steps, vm.ticks, vm.call_count),
        "compile_time": vm.code_cache.compile_time,
        "dcg": vm.profiler.dcg.edges(),
        "events": [
            (e.tick, e.function_index, e.level, e.inlines) for e in adaptive.events
        ],
    }
    return vm, observables


CASES = [
    pytest.param(vm_name, profiler, name, id=f"{vm_name}-{profiler}-{name}")
    for vm_name in ("jikes", "j9")
    for profiler in ("cbs", "timer")
    for name in ("jess", "mtrt", "javac")
]


@pytest.mark.parametrize("vm_name,profiler,name", CASES)
def test_adaptive_jit_run_is_bit_identical(vm_name, profiler, name):
    program = program_for(name, "tiny")
    jit_vm, jit_observed = adaptive_run(program, vm_name, profiler, True)
    plain_vm, plain_observed = adaptive_run(program, vm_name, profiler, False)
    assert jit_observed == plain_observed
    assert jit_observed["events"], "the controller never recompiled"
    assert jit_vm.jit_compiles > 0
    assert plain_vm.jit_compiles == 0
    assert_exit_accounting(jit_vm)
