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

Each row holds the guest steps and the host opcodes exactly.  Any
change to the loop, the templates, the fusion table or the VM's hot
paths that moves a count must update :data:`COUNTS` (``python -m
tests.vm.test_host_opcodes`` prints the table) and say why in
CHANGES.md.  Bytecode differs between CPython minor versions, so the
counts are held on 3.11 only.
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

#: (program, mode) -> (guest steps, host opcodes) at ``tiny``.
COUNTS = {
    ("compress", "plain"): (130245, 3394694),  # 26.06 per step
    ("compress", "hooked"): (130245, 3403587),  # 26.13
    ("compress", "rerun"): (130264, 3395102),  # 26.06
    ("xerces", "plain"): (131889, 3333546),  # 25.28
    ("xerces", "hooked"): (131889, 3361415),  # 25.49
    ("xerces", "rerun"): (131939, 3317255),  # 25.14
    ("jess", "plain"): (57301, 1462841),  # 25.53
    ("jess", "hooked"): (57301, 1624220),  # 28.35
    ("jess", "rerun"): (63781, 2038226),  # 31.96
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


def measure(name: str, size: str = "tiny") -> dict[str, tuple[int, int]]:
    """Mode -> (guest steps, host opcodes) for one benchsuite program."""
    program = program_for(name, size)
    config = jikes_config()

    def level0():
        return Interpreter(program, config, jit_only_cache(program, config.cost_model, level=0))

    def counted(vm) -> tuple[int, int]:
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


if __name__ == "__main__":
    for name in PROGRAMS:
        for mode, (steps, opcodes) in measure(name).items():
            change = opcodes / FOUR_WIDE[name, mode][1] - 1
            print(
                f'    ("{name}", "{mode}"): ({steps}, {opcodes}),'
                f"  # {opcodes / steps:.2f} per step, {change:+.1%} against FOUR_WIDE"
            )
