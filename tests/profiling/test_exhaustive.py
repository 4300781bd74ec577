"""The exhaustive profiler against the recorder it replaced.

``ExhaustiveProfiler`` records a call with one dict update on its DCG's
edges and derives the total and ``method_samples`` when they are read.
:class:`ReferenceProfiler` below is the recorder it replaced — a
``DCG.record`` call plus a ``Counter`` bump per call — and every
observable must come out the same: the edges in the same insertion
order, the total, ``normalized()``, ``describe()``, ``method_samples``
(values and order) and, when costs are charged, the virtual clock.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.benchsuite.suite import program_for
from repro.profiling.cbs import CBSProfiler
from repro.profiling.dcg import DCG
from repro.profiling.exhaustive import INSTRUMENTATION_COST, ExhaustiveProfiler
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter
from tests.helpers import force_jit

#: A prime interval well below one tiny run's length, so CBS samples
#: and charged runs move ticks.
TIMER_INTERVAL = 7919


class ReferenceProfiler:
    """One ``DCG.record`` and one ``Counter`` increment per call."""

    def __init__(self, charge_costs: bool = False):
        self.dcg = DCG()
        self.method_samples: Counter = Counter()
        self.charge_costs = charge_costs

    def install(self, vm) -> None:
        def observe(caller: int, callsite_pc: int, callee: int) -> None:
            self.dcg.record(caller, callsite_pc, callee)
            self.method_samples[callee] += 1
            if self.charge_costs:
                vm.time += INSTRUMENTATION_COST

        vm.add_call_observer(observe)


def _run(program, profiler, *, cbs: bool, jit: bool, tick_hook=None):
    vm = Interpreter(program, jikes_config(jit=jit, timer_interval=TIMER_INTERVAL))
    profiler.install(vm)
    if cbs:
        vm.attach_profiler(CBSProfiler(stride=3, samples_per_tick=16, seed=7))
    if tick_hook is not None:
        vm.chain_tick_hook(tick_hook)
    if jit:
        force_jit(vm)
    vm.run()
    return vm


@pytest.mark.parametrize("jit", [False, True], ids=["interp", "jit"])
@pytest.mark.parametrize("cbs", [False, True], ids=["alone", "with-cbs"])
@pytest.mark.parametrize("charged", [False, True], ids=["free", "charged"])
@pytest.mark.parametrize("bench", ["jess", "mtrt", "javac"])
def test_matches_the_reference_recorder(bench, charged, cbs, jit):
    program = program_for(bench, "tiny")
    ref = ReferenceProfiler(charge_costs=charged)
    ref_vm = _run(program, ref, cbs=cbs, jit=jit)
    new = ExhaustiveProfiler(charge_costs=charged)
    vm = _run(program, new, cbs=cbs, jit=jit)

    assert list(new.dcg.edges().items()) == list(ref.dcg.edges().items())
    assert new.dcg.total_weight == ref.dcg.total_weight > 0
    assert list(new.dcg.normalized().items()) == list(ref.dcg.normalized().items())
    assert new.dcg.describe(program) == ref.dcg.describe(program)
    assert list(new.method_samples.items()) == list(ref.method_samples.items())
    assert all(type(count) is int for count in new.method_samples.values())
    assert new.samples_taken == sum(ref.method_samples.values())
    assert (vm.time, vm.steps, vm.ticks) == (ref_vm.time, ref_vm.steps, ref_vm.ticks)
    if not charged:
        plain = Interpreter(program, jikes_config(jit=jit, timer_interval=TIMER_INTERVAL))
        if cbs:
            plain.attach_profiler(CBSProfiler(stride=3, samples_per_tick=16, seed=7))
        plain.run()
        assert vm.time == plain.time


@pytest.mark.parametrize("jit", [False, True], ids=["interp", "jit"])
def test_dcg_cleared_mid_run(jit):
    """The phase-change study's pattern: a tick hook empties the DCG and
    recording carries on into the same (cleared) dict."""
    program = program_for("jess", "tiny")

    def run(profiler):
        def clear_at_tick_5(vm) -> None:
            if vm.ticks == 5:
                profiler.dcg.clear()

        _run(program, profiler, cbs=True, jit=jit, tick_hook=clear_at_tick_5)

    ref, new = ReferenceProfiler(), ExhaustiveProfiler()
    run(ref)
    run(new)
    whole = ExhaustiveProfiler()
    _run(program, whole, cbs=True, jit=jit)
    assert 0 < new.dcg.total_weight < whole.dcg.total_weight
    assert list(new.dcg.edges().items()) == list(ref.dcg.edges().items())
    assert new.dcg.total_weight == ref.dcg.total_weight
    assert new.dcg.describe(program) == ref.dcg.describe(program)
    # method_samples is read from the DCG, so it restarts with it.
    assert new.method_samples == Counter(
        {callee: int(weight) for callee, weight in ref.dcg.callee_weights().items()}
    )


@pytest.mark.parametrize("charged", [False, True], ids=["free", "charged"])
def test_total_read_mid_run(charged):
    """A tick hook reading the total sees the calls recorded so far."""
    program = program_for("mtrt", "tiny")

    def run(profiler):
        seen = []
        vm = _run(
            program, profiler, cbs=True, jit=False,
            tick_hook=lambda vm: seen.append(profiler.dcg.total_weight),
        )
        return seen, vm.time

    ref_seen, ref_time = run(ReferenceProfiler(charge_costs=charged))
    new_seen, new_time = run(ExhaustiveProfiler(charge_costs=charged))
    assert len(new_seen) > 3
    assert new_seen == ref_seen
    assert new_seen == sorted(new_seen)
    assert new_time == ref_time


def test_attached_as_the_profiler():
    """In the profiler slot it records through the call observer and
    takes nothing at ticks: the run's clock is the unprofiled one."""
    program = program_for("jess", "tiny")
    slotted = ExhaustiveProfiler()
    vm = Interpreter(program, jikes_config(timer_interval=TIMER_INTERVAL))
    vm.attach_profiler(slotted)
    vm.run()
    observer = ExhaustiveProfiler()
    plain = Interpreter(program, jikes_config(timer_interval=TIMER_INTERVAL))
    observer.install(plain)
    plain.run()
    assert vm.ticks > 3
    assert (vm.time, vm.steps) == (plain.time, plain.steps)
    assert list(slotted.dcg.edges().items()) == list(observer.dcg.edges().items())
