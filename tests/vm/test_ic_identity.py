"""Differential suite: inline caches are bit-identical to raw dispatch.

Inline caches (:mod:`repro.vm.ic`) are a host-level dispatch strategy,
exactly like superinstruction fusion.  Everything the paper's
experiments measure — virtual time, timer ticks, yieldpoints, step
counts, DCG edge weights, telemetry events, saved profiles — must be
unaffected by whether dispatch goes through an IC binding, a leaf
template, or the generic lookup.  Every test runs the same program
twice, ``ic=True`` vs ``ic=False``, and asserts the observable states
match exactly (no tolerances).

The only permitted differences are the IC bookkeeping itself
(``ic_misses``/``ic_transitions`` on the VM, the ``ic.*`` metric keys)
and — because IC quickening changes which pcs fusion may group — the
``fusion.*`` dispatch counters.
"""

from __future__ import annotations

import json

import pytest

from repro.benchsuite.suite import ADVERSARIAL, program_for
from repro.frontend.codegen import compile_source
from repro.profiling.cbs import CBSProfiler
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.hardware import HardwareCallSampler
from repro.profiling.patching import CodePatchingProfiler
from repro.profiling.serialize import save_profile
from repro.profiling.timer_sampler import TimerProfiler
from repro.telemetry.exporters import export_jsonl
from repro.telemetry.tracer import Tracer
from repro.vm import ic
from repro.vm.config import config_named, jikes_config
from repro.vm.errors import VMError
from repro.vm.interpreter import Interpreter
from tests.helpers import force_jit

#: Virtual-dispatch-heavy suite members plus one allocation-heavy and
#: one recursion-heavy program; jess-tiny alone covers mono, poly and
#: megamorphic sites.
PROGRAMS = ["compress", "jess", "javac", "mtrt", "jack", "jbb"]

PROFILERS = {
    "none": lambda: None,
    "exhaustive": ExhaustiveProfiler,
    "timer": TimerProfiler,
    "cbs": lambda: CBSProfiler(stride=3, samples_per_tick=16, seed=7),
}


def _run(program, config, make_profiler):
    vm = Interpreter(program, config)
    profiler = make_profiler()
    if isinstance(profiler, ExhaustiveProfiler):
        profiler.install(vm)  # call observer, not a sampling profiler
    elif profiler is not None:
        vm.attach_profiler(profiler)
    vm.run()
    return vm, profiler


def _state(vm, profiler):
    dcg = profiler.dcg.edges() if profiler is not None else None
    return {
        "output": list(vm.output),
        "time": vm.time,
        "steps": vm.steps,
        "ticks": vm.ticks,
        "calls": vm.call_count,
        "methods": vm.methods_executed,
        "dcg": dcg,
    }


def assert_ic_identical(program, vm_name="jikes", profiler="none", **overrides):
    ic_cfg = config_named(vm_name, ic=True, **overrides)
    raw_cfg = config_named(vm_name, ic=False, **overrides)
    make = PROFILERS[profiler]
    ic_vm, ic_prof = _run(program, ic_cfg, make)
    raw_vm, raw_prof = _run(program, raw_cfg, make)
    assert _state(ic_vm, ic_prof) == _state(raw_vm, raw_prof)
    # The IC run actually quickened call sites (otherwise this suite
    # proves nothing) and the raw run never did.
    assert ic_vm.code_cache.ic_sites > 0
    assert ic_vm.code_cache.receiver_cell_total() > 0
    assert raw_vm.code_cache.ic_sites == 0
    assert raw_vm.ic_misses == 0
    return ic_vm, raw_vm


@pytest.mark.parametrize("name", PROGRAMS)
@pytest.mark.parametrize("profiler", ["none", "exhaustive", "cbs"])
def test_benchsuite_identical_jikes(name, profiler):
    assert_ic_identical(program_for(name, "tiny"), "jikes", profiler)


@pytest.mark.parametrize("name", ["compress", "javac", "jbb"])
def test_benchsuite_identical_timer_profiler(name):
    assert_ic_identical(program_for(name, "tiny"), "jikes", "timer")


@pytest.mark.parametrize("name", ["compress", "javac", "mtrt"])
def test_benchsuite_identical_j9(name):
    assert_ic_identical(program_for(name, "tiny"), "j9", "cbs")


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_ic_composes_with_fusion(fuse):
    """IC identity holds with fusion on *and* off — the two quickening
    layers (IC_BASE opcodes vs FUSE_BASE groups) don't interact."""
    assert_ic_identical(program_for("jess", "tiny"), "jikes", "cbs", fuse=fuse)


def test_adversarial_identical():
    program = compile_source(ADVERSARIAL.source("tiny"))
    assert_ic_identical(program, "jikes", "cbs")


#: Tiny prime intervals land timer ticks inside call sequences constantly.
TICK_STRESS_INTERVALS = [97, 523, 1009]


@pytest.mark.parametrize("interval", TICK_STRESS_INTERVALS)
def test_small_timer_intervals_stress_tick_paths(interval):
    """Tiny prime intervals land timer ticks inside leaf-template
    bodies constantly, exercising the tick-aware leaf bailout."""
    assert_ic_identical(
        program_for("jess", "tiny"), "jikes", "cbs", timer_interval=interval
    )


#: Call observers that charge virtual time on the notification, which
#: now precedes the leaf tier's "could a tick land inside the body" test.
CHARGING_OBSERVERS = {
    "charged": lambda: ExhaustiveProfiler(charge_costs=True),
    "patching": lambda: CodePatchingProfiler(warmup_invocations=0),
}


def _run_observed(program, config, make_observer):
    vm = Interpreter(program, config)
    # A two-sample window closes well inside even a 523-unit interval,
    # so the control word is back to zero (leaf tier engaged) when the
    # next tick approaches; the suite's usual 3 x 16 window would stay
    # open from one tick to the next.
    cbs = CBSProfiler(stride=1, samples_per_tick=2, seed=7)
    vm.attach_profiler(cbs)
    observer = make_observer()
    observer.install(vm)
    vm.run()
    state = _state(vm, observer)
    state["cbs_dcg"] = cbs.dcg.edges()
    state["samples"] = cbs.samples_taken
    return vm, state


@pytest.mark.parametrize("observer", sorted(CHARGING_OBSERVERS))
@pytest.mark.parametrize("interval", TICK_STRESS_INTERVALS)
def test_charging_observer_pushes_leaf_bodies_across_ticks(interval, observer):
    """On a leaf-heavy program (92 % of jess's calls) the observer's
    charge repeatedly moves ``time + leaf cost`` across ``next_tick``
    after the call was already notified; the bailout must leave time,
    ticks, steps, calls, both DCGs and the sample count exactly as the
    never-quickened run has them."""
    program = program_for("jess", "tiny")
    make = CHARGING_OBSERVERS[observer]
    ic_vm, with_ic = _run_observed(
        program, jikes_config(ic=True, timer_interval=interval), make
    )
    _, without = _run_observed(
        program, jikes_config(ic=False, timer_interval=interval), make
    )
    assert with_ic == without
    assert with_ic["ticks"] > 10 and with_ic["samples"] > 10
    assert ic_vm.code_cache.ic_sites > 0


#: ``get`` is a leaf; ``down(p, k)`` calls it with ``k + 2`` frames live.
LEAF_AT_DEPTH = """
class P {
  var x: int;
  def get(): int { return this.x; }
}
def down(p: P, n: int): int {
  if (n == 0) { return p.get(); }
  return down(p, n - 1);
}
def main() {
  var p = new P();
  p.x = 3;
  var t = 0;
  for (var k = 0; k < 8; k = k + 1) { t = t + down(p, k); }
  print(t);
}
"""


def test_leaf_call_at_max_frames_notifies_once_then_faults():
    """Notification precedes the tier choice, so the call that finds no
    stack headroom is observed (once), skips the leaf sequence, and
    faults with the transcript of the never-quickened run."""
    program = compile_source(LEAF_AT_DEPTH)
    transcripts = {}
    for label, use_ic in (("ic", True), ("raw", False)):
        vm = Interpreter(program, jikes_config(ic=use_ic, max_frames=6))
        profiler = ExhaustiveProfiler()
        profiler.install(vm)
        with pytest.raises(VMError) as excinfo:
            vm.run()
        fault = excinfo.value
        transcripts[label] = (
            str(fault), fault.function, fault.pc, _state(vm, profiler)
        )
    assert transcripts["ic"] == transcripts["raw"]
    message, function, _, state = transcripts["ic"]
    assert "guest stack exceeded 6 frames" in message
    assert function == "down"
    get = program.function_index("P.get")
    # k = 0..3 completed, k = 4 faulted at the get() site after notifying.
    assert sum(w for (_, _, callee), w in state["dcg"].items() if callee == get) == 5


#: A hot accessor: one raw execution quickens the site, then every call
#: is a cache hit on a leaf callee.
LEAF_LOOP = """
class Point {
  var x: int;
  def getX(): int { return this.x; }
}
def main() {
  var p = new Point();
  p.x = 7;
  var t = 0;
  for (var i = 0; i < 200; i = i + 1) { t = t + p.getX(); }
  print(t);
}
"""


LEAF_HOOKS = {
    "none": lambda vm: None,
    "exhaustive": lambda vm: ExhaustiveProfiler().install(vm),
    "charged": lambda vm: ExhaustiveProfiler(charge_costs=True).install(vm),
    "patching": lambda vm: CodePatchingProfiler().install(vm),
    "hardware": lambda vm: HardwareCallSampler().install(vm),
    "tracer": lambda vm: vm.attach_telemetry(Tracer()),
}


@pytest.mark.parametrize("hook", sorted(LEAF_HOOKS))
def test_leaf_tier_stays_engaged_under_hooks(hook):
    """Deterministic engagement check (no wall clock): count executions
    of the accessor's host closure.  Hooks are notified before the tier
    is chosen, so none of them turns the leaf sequence off.  The timer
    never fires, so charged time cannot move a bailout."""
    program = compile_source(LEAF_LOOP)
    config = jikes_config(timer_interval=10**9)
    vm = Interpreter(program, config)
    method = vm.code_cache.methods[program.function_index("Point.getX")]
    closure = method.leaf[ic.L_FN]
    runs = []

    def counting(stack, base):
        runs.append(base)
        return closure(stack, base)

    leaf = list(method.leaf)
    leaf[ic.L_FN] = counting
    method.leaf = tuple(leaf)
    LEAF_HOOKS[hook](vm)
    vm.run()
    assert vm.output == [1400]
    assert vm.ticks == 0
    # Every call but the first (which quickens the site) is a leaf call.
    assert len(runs) == 199


#: The soot/jess shape: a small accessor whose body branches forward.
BRANCHING_ACCESSOR = """
class Range {
  var lo: int;
  var hi: int;
  def holds(v: int): int {
    if (v < this.lo) { return 0; }
    if (v > this.hi) { return 0; }
    return 1;
  }
}
def main() {
  var r = new Range();
  r.lo = 10;
  r.hi = 50;
  var t = 0;
  for (var i = 0; i < 80; i = i + 1) { t = t + r.holds(i); }
  print(t);
}
"""


@pytest.mark.parametrize("interval", TICK_STRESS_INTERVALS)
def test_branching_accessor_takes_the_generic_sequence(interval):
    """A body with a jump gets no leaf template: its calls go through
    the generic calling sequence (and, under the JIT, the callee is
    compiled like any other method) with every observable unchanged."""
    program = compile_source(BRANCHING_ACCESSOR)
    ic_vm, raw_vm = assert_ic_identical(
        program, "jikes", "cbs", timer_interval=interval
    )
    holds = program.function_index("Range.holds")
    assert ic_vm.code_cache.methods[holds].leaf is None
    assert ic_vm.output == [41]
    jit_cfg = config_named("jikes", jit=True, timer_interval=interval)
    jit_vm = Interpreter(program, jit_cfg)
    profiler = PROFILERS["cbs"]()
    jit_vm.attach_profiler(profiler)
    force_jit(jit_vm)
    jit_vm.run()
    assert _state(jit_vm, profiler) == _state(raw_vm, raw_vm.profiler)
    assert jit_vm.code_cache.methods[holds].jit.source is not None


def test_large_size_spot_check():
    assert_ic_identical(program_for("jess", "small"), "jikes", "cbs")


def test_saved_profiles_byte_identical(tmp_path):
    """The serialized DCG profile — what the fleet shares and the
    optimizer consumes — is byte-for-byte the same with ICs on or off."""
    program = program_for("jess", "tiny")
    paths = {}
    for label, ic in (("ic", True), ("raw", False)):
        vm = Interpreter(program, config_named("jikes", ic=ic))
        profiler = CBSProfiler(stride=3, samples_per_tick=16, seed=7)
        vm.attach_profiler(profiler)
        vm.run()
        path = tmp_path / f"{label}.json"
        save_profile(profiler.dcg, program, str(path))
        paths[label] = path.read_bytes()
    assert paths["ic"] == paths["raw"]


def _trace_lines(program, config, tmp_path, label):
    tracer = Tracer()
    vm = Interpreter(program, config)
    vm.attach_profiler(CBSProfiler(stride=3, samples_per_tick=16, seed=7))
    vm.attach_telemetry(tracer)
    vm.run()
    path = tmp_path / f"{label}.jsonl"
    export_jsonl(tracer, str(path))
    return path.read_text().splitlines()


def test_telemetry_jsonl_traces_identical(tmp_path):
    """Event streams are byte-identical; metrics differ only in the
    ``ic.*`` keys and the ``fusion.*`` dispatch counters (quickened
    call opcodes change which pcs fusion can group)."""
    program = program_for("jess", "tiny")
    with_ic = _trace_lines(program, jikes_config(ic=True), tmp_path, "ic")
    without = _trace_lines(program, jikes_config(ic=False), tmp_path, "raw")
    assert len(with_ic) == len(without)
    # Header and every event line: byte-identical.
    assert with_ic[:-1] == without[:-1]
    ic_metrics = json.loads(with_ic[-1])["metrics"]
    raw_metrics = json.loads(without[-1])["metrics"]

    def strip_dispatch(snapshot):
        return {
            k: v
            for k, v in snapshot.items()
            if not k.startswith(("ic.", "fusion."))
        }

    assert strip_dispatch(ic_metrics) == strip_dispatch(raw_metrics)
    assert ic_metrics["ic.hits"]["value"] > 0
    assert ic_metrics["ic.sites"]["value"] > 0
    assert "ic.hits" not in raw_metrics or raw_metrics["ic.hits"]["value"] == 0


def test_ic_metrics_accumulate_across_runs():
    """Hits/misses are per-run deltas into counters; sites is a gauge
    set to the cache's running total (no double counting).  The second
    run reuses the already-quickened sites, so it scores at least as
    many hits as the first and strictly fewer misses."""
    program = program_for("jess", "tiny")
    tracer = Tracer()
    vm = Interpreter(program, jikes_config())
    vm.attach_telemetry(tracer)
    vm.run()
    first = tracer.metrics.snapshot()
    hits_once = first["ic.hits"]["value"]
    misses_once = first["ic.misses"]["value"]
    assert hits_once > 0 and misses_once > 0
    vm.run()
    snapshot = tracer.metrics.snapshot()
    assert snapshot["ic.hits"]["value"] >= 2 * hits_once
    assert snapshot["ic.misses"]["value"] < 2 * misses_once
    assert snapshot["ic.sites"]["value"] == vm.code_cache.ic_sites
