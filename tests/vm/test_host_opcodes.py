"""Host work per guest step, counted exactly.

Wall-clock time on a shared host drifts by more than most changes to
the interpreter move it, so regressions are caught here by a count that
does not drift: the CPython opcodes ``vm.run()`` executes, each an
``opcode`` event under ``sys.settrace`` with ``f_trace_opcodes`` on.  A
C call counts as one opcode, so the count weighs Python-level dispatch
work only; it is a gate, not a claim (gains are claimed from
wall-clock pairs, see docs/PERFORMANCE.md).

Three programs at ``tiny``, each run the three ways a table cell and
the dispatch measurement (``dispatchgen --measure``) run it:

* ``plain`` — ``jikes_config()``: fused, inline caches, no JIT;
* ``hooked`` — level-0 code with ``ExhaustiveProfiler`` and
  ``CBSProfiler(3, 16)``, as ``harness.runner.measure_profiler`` runs it;
* ``rerun`` — level-0 code with the ``NewJikesInliner`` plans from that
  CBS profile installed at level 2.

Each row holds the guest steps and the host opcodes exactly.  The code
cache builds a method on its first entry, so :data:`COUNTS` includes
building the methods a run enters; :data:`LOOP_COUNTS` is the same run
on a cache whose every method was built before it started, the loop's
own work.  Any change to the loop, the templates, the fusion table, the
method build or the VM's hot paths that moves a count must update both
tables (``python -m tests.vm.test_host_opcodes`` prints them) and say
why in CHANGES.md.  Bytecode differs between CPython minor versions, so
the counts are held on 3.11 only.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.adaptive.modes import jit_only_cache
from repro.benchsuite import program_for
from repro.inlining.new_inliner import NewJikesInliner
from repro.opt.pipeline import optimize_function
from repro.profiling.cbs import CBSProfiler
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter

PROGRAMS = ("compress", "xerces", "jess")
MODES = ("plain", "hooked", "rerun")

#: (program, mode) -> (guest steps, host opcodes) at ``tiny``, the
#: entered methods built inside the counted run.
COUNTS = {
    ("compress", "plain"): (130245, 3424297),  # 26.29 per step
    ("compress", "hooked"): (130245, 3433190),  # 26.36
    ("compress", "rerun"): (130264, 3402626),  # 26.12
    ("xerces", "plain"): (131889, 3408440),  # 25.84
    ("xerces", "hooked"): (131889, 3436309),  # 26.05
    ("xerces", "rerun"): (131939, 3344182),  # 25.35
    ("jess", "plain"): (57301, 1506294),  # 26.29
    ("jess", "hooked"): (57301, 1667673),  # 29.10
    ("jess", "rerun"): (63781, 2063741),  # 32.36
}

#: The same runs with every method built before the count starts: the
#: loop's own work.
LOOP_COUNTS = {
    ("compress", "plain"): (130245, 3394710),  # 26.06 per step
    ("compress", "hooked"): (130245, 3403603),  # 26.13
    ("compress", "rerun"): (130264, 3395110),  # 26.06
    ("xerces", "plain"): (131889, 3333568),  # 25.28
    ("xerces", "hooked"): (131889, 3361437),  # 25.49
    ("xerces", "rerun"): (131939, 3317263),  # 25.14
    ("jess", "plain"): (57301, 1462905),  # 25.53
    ("jess", "hooked"): (57301, 1624284),  # 28.35
    ("jess", "rerun"): (63781, 2038276),  # 31.96
}

#: The same runs under the table this one replaced (37 windows of two
#: to four ops): the reference ``python -m tests.vm.test_host_opcodes``
#: reports against.
FOUR_WIDE = {
    ("compress", "plain"): (130245, 4096878),  # 31.46 per step
    ("compress", "hooked"): (130245, 4105204),  # 31.52
    ("compress", "rerun"): (130264, 4097663),  # 31.46
    ("xerces", "plain"): (131889, 4655857),  # 35.30
    ("xerces", "hooked"): (131889, 4683804),  # 35.51
    ("xerces", "rerun"): (131939, 4639339),  # 35.16
    ("jess", "plain"): (57301, 1674396),  # 29.22
    ("jess", "hooked"): (57301, 1835852),  # 32.04
    ("jess", "rerun"): (63781, 2197501),  # 34.45
}


def count_opcodes(vm) -> int:
    """CPython opcodes executed by ``vm.run()``.  The cyclic collector is
    held off while it runs: a collection there would run whatever
    finalizers earlier work in the process left behind, and count them."""
    n = 0

    def local(frame, event, arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        vm.run()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return n


def measure(name: str, size: str = "tiny", built: bool = False) -> dict[str, tuple[int, int]]:
    """Mode -> (guest steps, host opcodes) for one benchsuite program;
    ``built`` builds every method before the counted run."""
    program = program_for(name, size)
    config = jikes_config()

    def level0():
        return Interpreter(program, config, jit_only_cache(program, config.cost_model, level=0))

    def counted(vm) -> tuple[int, int]:
        if built:
            vm.code_cache.build_all()
        opcodes = count_opcodes(vm)
        return vm.steps, opcodes

    hooked = level0()
    ExhaustiveProfiler().install(hooked)
    cbs = CBSProfiler(stride=3, samples_per_tick=16)
    hooked.attach_profiler(cbs)
    counts = {"plain": counted(Interpreter(program, config)), "hooked": counted(hooked)}
    rerun = level0()
    policy = NewJikesInliner(program)
    for function in program.functions:
        plan = policy.plan_for(function.index, cbs.dcg)
        if not plan.is_empty():
            rerun.code_cache.install(optimize_function(program, plan).function, 2)
    counts["rerun"] = counted(rerun)
    return counts


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytecode is per minor version")
@pytest.mark.parametrize("name", PROGRAMS)
def test_host_opcodes_per_step_are_the_committed_counts(name):
    got = measure(name)
    assert got == {mode: COUNTS[name, mode] for mode in MODES}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytecode is per minor version")
@pytest.mark.parametrize("name", PROGRAMS)
def test_host_opcodes_of_the_loop_alone_are_the_committed_counts(name):
    got = measure(name, built=True)
    assert got == {mode: LOOP_COUNTS[name, mode] for mode in MODES}


if __name__ == "__main__":
    for table, built in (("COUNTS", False), ("LOOP_COUNTS", True)):
        print(f"{table} = {{")
        for name in PROGRAMS:
            for mode, (steps, opcodes) in measure(name, built=built).items():
                change = opcodes / FOUR_WIDE[name, mode][1] - 1
                print(
                    f'    ("{name}", "{mode}"): ({steps}, {opcodes}),'
                    f"  # {opcodes / steps:.2f} per step, {change:+.1%} against FOUR_WIDE"
                )
        print("}")
