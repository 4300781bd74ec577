"""Differential suite: the opt-level-3 template JIT is bit-identical to
the interpreter, including every de-optimization path.

The JIT is a host-level execution strategy.  Everything the paper's
experiments measure — virtual time, timer ticks, step counts, call
counts, DCG edge weights, guest fault transcripts — must be unaffected
by it.  Every test here runs the same program twice, once with
``jit=True`` and once with ``jit=False``, and asserts the observable
states match exactly (no tolerances).

The deopt paths are the dangerous part, so they get targeted tests:

* **tick boundaries** — a JIT'd segment must bail *before* crossing a
  tick so the tick fires at the interpreter's exact step/time, with
  tiny prime timer intervals to land ticks mid-body constantly;
* **IC guard failure** — receiver classes baked into the generated
  code as compile-time constants stop matching when a site goes
  polymorphic after compilation, and the exit must hand the
  interpreter a coherent frame at the call pc;
* **guest faults** — division by zero and null field access inside a
  JIT'd body must produce the same error, pc, and synced counters as
  the interpreter, including the segment-charge give-back for ops the
  raw run never executed;
* **direct calls** — a compiled caller enters a compiled callee's body
  itself, so every one of the above can now happen several host frames
  deep: the nested activations hand back through resume records and
  the interpreter rebuilds the frames by replaying the calls.  Deep
  recursion (past the host recursion limit, past ``max_frames``), ticks
  inside directly entered callees under every sampling profiler, faults
  and the step limit three calls down.
* **polymorphic tails** — a site with overflow bindings or gone
  megamorphic resolves the receivers its two guards miss in generated
  code and counts the inline-cache miss itself, so the miss counters
  and the exact receiver profile join the compared state: every IC
  state from 3 classes to 16, a class without the selector, a null
  receiver, ticks on the tail's call charge, a tail callee that hands
  back from three frames down, and the tail at ``max_frames``.

The only permitted difference is the JIT bookkeeping itself: the
``jit_*`` counters on the VM and the ``jit.*`` metric keys in
telemetry snapshots.

JIT runs here promote at first entry (``tests.helpers.force_jit``):
the subject is the generated code, and at the product threshold most
methods of these small programs would stay interpreted.  Promotion
policy itself is covered by ``test_jit_lazy.py``.
"""

from __future__ import annotations

import pytest

from repro.benchsuite.suite import program_for
from repro.bytecode.assembler import assemble
from repro.frontend.codegen import compile_source
from repro.profiling.cbs import CBSProfiler
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.receivers import ReceiverProfile
from repro.profiling.timer_sampler import TimerProfiler
from repro.vm.config import config_named
from repro.vm.errors import (
    DivisionByZeroError,
    NullPointerError,
    StackOverflowError_,
    StepLimitExceeded,
    VMError,
)
from repro.vm.interpreter import Interpreter
from repro.vm.jit import exit_sites
from tests.helpers import force_jit

PROFILERS = {
    "none": lambda: None,
    "exhaustive": ExhaustiveProfiler,
    "timer": TimerProfiler,
    "cbs": lambda: CBSProfiler(stride=3, samples_per_tick=16, seed=7),
    # A window that closes well inside one tick interval, so generated
    # code (entered only while the yieldpoint flag is clear) runs
    # between windows even at tiny intervals.
    "cbs-brief": lambda: CBSProfiler(stride=2, samples_per_tick=2, seed=7),
}


def _run(program, config, make_profiler):
    vm = Interpreter(program, config)
    profiler = make_profiler()
    if isinstance(profiler, ExhaustiveProfiler):
        profiler.install(vm)  # call observer, not a sampling profiler
    elif profiler is not None:
        vm.attach_profiler(profiler)
    if config.jit:
        force_jit(vm)
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
        "ic_misses": vm.ic_misses,
        "ic_transitions": vm.ic_transitions,
        "receivers": ReceiverProfile.from_cache(vm.code_cache).sites,
        "dcg": dcg,
    }


def assert_exit_accounting(vm):
    """Every JIT entry leaves through exactly one exit."""
    assert (
        vm.jit_entries + vm.jit_osr_entries
        == vm.jit_deopts
        + vm.jit_guard_exits
        + vm.jit_call_exits
        + vm.jit_return_exits
    )


def assert_jit_identical(program, vm_name="jikes", profiler="none", **overrides):
    jit_cfg = config_named(vm_name, jit=True, **overrides)
    plain_cfg = config_named(vm_name, jit=False, **overrides)
    make = PROFILERS[profiler]
    jit_vm, jit_prof = _run(program, jit_cfg, make)
    plain_vm, plain_prof = _run(program, plain_cfg, make)
    assert _state(jit_vm, jit_prof) == _state(plain_vm, plain_prof)
    # The JIT'd run actually compiled and entered generated code
    # (otherwise this suite proves nothing) and the plain run never did.
    assert jit_vm.jit_compiles > 0
    assert jit_vm.jit_entries + jit_vm.jit_osr_entries > 0
    assert plain_vm.jit_compiles == 0
    assert plain_vm.jit_entries == plain_vm.jit_osr_entries == 0
    assert_exit_accounting(jit_vm)
    return jit_vm, plain_vm


# -- tick-boundary deopt ----------------------------------------------------------

HOT_LOOP = """
def main() {
  var total = 0;
  for (var i = 0; i < 6000; i = i + 1) {
    total = (total + i * 3 - (i / 7)) % 99991;
  }
  print(total);
}
"""


@pytest.mark.parametrize("interval", [97, 523, 1009])
def test_tick_boundary_deopt(interval):
    """Tiny prime intervals land ticks inside JIT'd segments constantly;
    the generated code must bail to the interpreter at the segment head
    so the tick fires at the exact interpreted step/time."""
    program = compile_source(HOT_LOOP)
    jit_vm, _ = assert_jit_identical(
        program, "jikes", "cbs", timer_interval=interval
    )
    assert jit_vm.jit_deopts > 0


def test_tick_boundary_deopt_timer_profiler():
    program = compile_source(HOT_LOOP)
    jit_vm, _ = assert_jit_identical(program, "jikes", "timer", timer_interval=97)
    assert jit_vm.jit_deopts > 0


# -- IC guard failure -------------------------------------------------------------

PHASE_CHANGE = """
class A { def get(): int { return 3; } }
class B extends A { def get(): int { return 5; } }
class C extends A { def get(): int { return 7; } }

def probe(obj: A): int {
  return obj.get() + 1;
}

def main() {
  var a = new A();
  var b = new B();
  var c = new C();
  var total = 0;
  for (var i = 0; i < 4000; i = i + 1) {
    var obj = a;
    if (i % 2 == 1) { obj = b; }
    if (i > 3000) { obj = c; }
    total = total + probe(obj);
  }
  print(total);
}
"""


def test_ic_guard_failure_exits():
    """The call site in ``probe`` is compiled while the IC holds {A, B};
    once ``C`` shows up the baked class guards stop matching and the
    generated code must exit at the call pc with a coherent frame."""
    program = compile_source(PHASE_CHANGE)
    jit_vm, _ = assert_jit_identical(program, "jikes", "cbs")
    assert jit_vm.jit_guard_exits > 0


def test_ic_guard_failure_exits_no_profiler():
    program = compile_source(PHASE_CHANGE)
    jit_vm, _ = assert_jit_identical(program)
    assert jit_vm.jit_guard_exits > 0


# -- hand-assembled: guard failure AND tick boundary in one body ------------------

ASSEMBLED = """
class A fields x
class B extends A fields y
method A.get/1 locals=1
  LOAD 0
  GETFIELD A.x
  RETURN_VAL
end
method B.get/1 locals=1
  LOAD 0
  GETFIELD B.y
  RETURN_VAL
end
func hot/1 locals=4
  PUSH 0
  STORE 1
  PUSH 0
  STORE 2
label outer
  LOAD 1
  PUSH 40
  LT
  JUMP_IF_FALSE done
  PUSH 0
  STORE 3
label inner
  LOAD 3
  PUSH 200
  LT
  JUMP_IF_FALSE icall
  LOAD 2
  LOAD 3
  PUSH 3
  MUL
  ADD
  PUSH 9973
  MOD
  STORE 2
  LOAD 3
  PUSH 1
  ADD
  STORE 3
  JUMP inner
label icall
  LOAD 2
  LOAD 0
  CALL_VIRTUAL get 0
  ADD
  STORE 2
  LOAD 1
  PUSH 1
  ADD
  STORE 1
  JUMP outer
label done
  LOAD 2
  RETURN_VAL
end
func main/0 locals=2 void
  NEW A
  STORE 0
  LOAD 0
  PUSH 3
  PUTFIELD A.x
  NEW B
  STORE 1
  LOAD 1
  PUSH 5
  PUTFIELD B.y
  LOAD 0
  CALL_STATIC hot 1
  PRINT
  LOAD 1
  CALL_STATIC hot 1
  PRINT
  RETURN
end
"""


@pytest.mark.parametrize("interval", [211, 997])
def test_assembled_guard_and_tick_deopt(interval):
    """Hand-assembled hot method: first call monomorphizes the site on
    ``A``, the second call feeds it ``B`` receivers, and tiny intervals
    put tick boundaries mid-body throughout."""
    program = assemble(ASSEMBLED)
    jit_vm, _ = assert_jit_identical(
        program, "jikes", "cbs", timer_interval=interval
    )
    assert jit_vm.jit_deopts > 0


# -- guest faults inside JIT'd bodies ---------------------------------------------

DIV_FAULT = """
def main() {
  var total = 0;
  var d = 5000;
  for (var i = 0; i < 6000; i = i + 1) {
    total = total + 1000 / (d - i);
  }
  print(total);
}
"""

NULL_FAULT = """
class Node {
  var v: int;
}

def main() {
  var n = new Node();
  n.v = 2;
  var total = 0;
  for (var i = 0; i < 6000; i = i + 1) {
    total = total + n.v;
    if (i == 5000) { n = null; }
  }
  print(total);
}
"""


def _fail(program, exc_type, jit, **overrides):
    vm = Interpreter(program, config_named("jikes", jit=jit, **overrides))
    if jit:
        force_jit(vm)
    with pytest.raises(exc_type) as excinfo:
        vm.run()
    error = excinfo.value
    transcript = (
        type(error).__name__,
        str(error),
        error.function,
        error.pc,
        tuple(vm.output),
        vm.steps,
        vm.time,
        vm.ticks,
        vm.call_count,
        vm.ic_misses,
        ReceiverProfile.from_cache(vm.code_cache).sites,
    )
    return transcript, vm


@pytest.mark.parametrize(
    "source,exc_type",
    [
        pytest.param(DIV_FAULT, DivisionByZeroError, id="div-zero"),
        pytest.param(NULL_FAULT, NullPointerError, id="null-field"),
    ],
)
def test_fault_transcripts_synced(source, exc_type):
    """A fault thrown from deep inside a JIT'd body must match the
    interpreter's error, pc, output, and live counters exactly — the
    segment lump-charge must be given back for ops never executed."""
    program = compile_source(source)
    jit_transcript, jit_vm = _fail(program, exc_type, jit=True)
    plain_transcript, _ = _fail(program, exc_type, jit=False)
    assert jit_transcript == plain_transcript
    # The fault genuinely interrupted generated code, not the warmup.
    assert jit_vm.jit_compiles > 0
    assert jit_vm.jit_entries + jit_vm.jit_osr_entries > 0


@pytest.mark.parametrize("interval", [97, 1009])
def test_fault_transcripts_synced_small_intervals(interval):
    program = compile_source(DIV_FAULT)
    jit_transcript, _ = _fail(
        program, DivisionByZeroError, jit=True, timer_interval=interval
    )
    plain_transcript, _ = _fail(
        program, DivisionByZeroError, jit=False, timer_interval=interval
    )
    assert jit_transcript == plain_transcript


# -- direct calls: compiled caller -> compiled callee -----------------------------

RECURSION = """
def down(n: int): int {{
  if (n == 0) {{ return 0; }}
  return down(n - 1) + 1;
}}
def main() {{
  print(down({depth}));
  print(down({depth}));
}}
"""


def test_deep_returning_recursion_outlives_the_host_stack():
    """3000 guest frames is past Python's recursion limit and under
    ``max_frames``: direct-call chains stop at ``MAX_DIRECT_DEPTH``,
    hand back, and the interpreter starts the next chain from there."""
    program = compile_source(RECURSION.format(depth=3000))
    jit_vm, _ = assert_jit_identical(program)
    assert jit_vm.jit_direct_calls > 0
    assert jit_vm.jit_unwinds > 2000  # chains that hit the depth bound


def test_recursion_past_max_frames_faults_identically():
    program = compile_source(RECURSION.format(depth=5000))
    jit_transcript, jit_vm = _fail(program, StackOverflowError_, jit=True)
    plain_transcript, _ = _fail(program, StackOverflowError_, jit=False)
    assert jit_transcript == plain_transcript
    assert jit_transcript[1].startswith("guest stack exceeded 4096 frames")
    assert jit_vm.jit_unwinds > 0
    assert_exit_accounting(jit_vm)


CHAIN = """
class Node {
  var v: int;
}
def inner(n: Node, d: int): int {
  var r = n.v;
  if (d != 1) { r = r + 600 / d; }
  return r;
}
def middle(n: Node, d: int): int {
  var t = inner(n, d);
  if (t > 50) { t = t - inner(n, d + 1); }
  return t + 1;
}
def outer(n: Node, d: int): int {
  var t = middle(n, d);
  if (t < 0) { t = 0 - t; }
  return t + middle(n, d + 2);
}
def main() {
  var n = new Node();
  n.v = 7;
  var total = 0;
  for (var i = 0; i < LIMIT; i = i + 1) {
    total = (total + outer(n, 1200 - i)) % 99991;
    PHASE
  }
  print(total);
}
"""


def _chain(limit=900, phase=""):
    return compile_source(CHAIN.replace("LIMIT", str(limit)).replace("PHASE", phase))


#: Cells of the matrix below in which no tick lands inside a nested
#: body, in the interpreter as much as in generated code: at 97 a CBS
#: window is still open when the next tick arrives, so generated code
#: never gets a turn; and the timer sampler's own charge locks ticks at
#: these two intervals onto ``main``'s part of the loop.
NO_NESTED_TICKS = {("cbs-brief", 97), ("timer", 523), ("timer", 1009)}


@pytest.mark.parametrize("interval", [97, 523, 1009])
@pytest.mark.parametrize("profiler", ["none", "cbs-brief", "timer"])
def test_ticks_inside_directly_entered_callees(interval, profiler):
    """``main`` -> ``outer`` -> ``middle`` -> ``inner`` all run as
    generated code calling generated code; tiny intervals put ticks
    inside the nested bodies, where every live frame has to reach the
    interpreter (and the profiler's stack walk) exactly as built."""
    jit_vm, _ = assert_jit_identical(
        _chain(), "jikes", profiler, timer_interval=interval
    )
    assert jit_vm.jit_deopts > 0
    if (profiler, interval) not in NO_NESTED_TICKS:
        assert jit_vm.jit_direct_calls > 0
        assert jit_vm.jit_unwinds > 0


@pytest.mark.parametrize(
    "limit,phase,exc_type",
    [
        pytest.param(2000, "", DivisionByZeroError, id="div-zero"),
        pytest.param(
            2000, "if (i == 700) { n = null; }", NullPointerError, id="null-field"
        ),
    ],
)
def test_faults_three_direct_calls_deep(limit, phase, exc_type):
    """``inner`` faults with ``middle``, ``outer`` and ``main`` above it
    in generated code: the interpreter must raise from frames it built
    itself, with the counters of the faulting instruction."""
    program = _chain(limit, phase)
    jit_transcript, jit_vm = _fail(program, exc_type, jit=True)
    plain_transcript, _ = _fail(program, exc_type, jit=False)
    assert jit_transcript == plain_transcript
    assert jit_transcript[2] == "inner"
    assert jit_vm.jit_direct_calls > 0
    assert jit_vm.jit_unwinds >= 3
    assert_exit_accounting(jit_vm)


def test_step_limit_inside_a_nested_callee():
    """The budget binds at calls and back-edges; over a run of budgets
    that is ``outer``'s and ``middle``'s call sites — directly entered
    bodies — as well as ``main``, and every time the JIT'd run must stop
    on the interpreter's exact step."""
    program = _chain()
    stopped_in = set()
    for max_steps in range(30000, 30040, 3):
        jit_transcript, jit_vm = _fail(
            program, StepLimitExceeded, jit=True, max_steps=max_steps
        )
        plain_transcript, _ = _fail(
            program, StepLimitExceeded, jit=False, max_steps=max_steps
        )
        assert jit_transcript == plain_transcript
        assert jit_vm.jit_direct_calls > 0
        assert_exit_accounting(jit_vm)
        stopped_in.add(jit_transcript[2])
    assert stopped_in == {"main", "outer", "middle"}


# -- polymorphic tails: overflow and megamorphic receivers in generated code ------


def _widening(classes, body="return x + {k};", step=150, extra=1500, null_at=-1):
    """One call site in ``main``'s loop over a receiver mix that widens
    by a class every ``step`` iterations: the site is compiled early
    and then meets each IC state — second inline slot, overflow rows,
    the last bind, the call that turns it megamorphic, flat-table
    lookups of classes with no cell yet — after the tail is in place."""
    lines = ["class Node { var v: int; }"]
    for k in range(classes):
        head = "class V0" if k == 0 else f"class V{k} extends V0"
        method = body.replace("{k}", str(k + 1))
        lines.append(f"{head} {{ def f(n: Node, x: int): int {{ {method} }} }}")
    lines += ["def main() {", "  var n = new Node();", "  n.v = 7;"]
    lines.append(f"  var objs = new V0[{classes}];")
    lines += [f"  objs[{k}] = new V{k}();" for k in range(classes)]
    lines += [
        "  var t = 0;",
        f"  for (var i = 0; i < {classes * step + extra}; i = i + 1) {{",
        f"    var width = 1 + i / {step};",
        f"    if (width > {classes}) {{ width = {classes}; }}",
        "    var o = objs[i % width];",
        f"    if (i == {null_at}) {{ o = null; }}",
        "    t = (t + o.f(n, 1200 - i % 1100)) % 65521;",
        "  }",
        "  print(t);",
        "}",
    ]
    return "\n".join(lines)


#: Tail callees with no leaf template: ``f`` calls down the three-deep
#: static chain of ``CHAIN``, so a tick (or fault) in ``inner`` hands
#: back through ``middle``, ``outer``, ``f`` and the tail's direct call.
_CHAIN_FUNCTIONS = CHAIN[CHAIN.index("def inner"):CHAIN.index("def main")]
_CHAIN_BODY = "var r = outer(n, x) + {k}; if (r < 0) { r = 0 - r; } return r;"


def _widening_chain(classes, **kwargs):
    source = _widening(classes, body=_CHAIN_BODY, **kwargs)
    return source.replace("def main()", _CHAIN_FUNCTIONS + "def main()")


def _site_states(vm):
    return sorted(
        entry[15]
        for method in vm.code_cache.methods
        for entry in method.ics or ()
        if entry is not None and len(entry) > 5
    )


@pytest.mark.parametrize(
    "classes,state", [(3, 3), (4, 4), (8, 8), (9, 9), (16, 9)]
)
def test_polymorphic_tail_at_every_ic_state(classes, state):
    """3 and 4 classes end on overflow hits, 8 on the last bind, 9 on
    the call that makes the site megamorphic, 16 on steady flat-table
    dispatch.  Misses, transitions, methods executed and the receiver
    profile (all in ``_state``) match the interpreter's, and what is
    left of the guard exits is one per class bound plus the calls
    between the third class and the tick that brings the tail."""
    program = compile_source(_widening(classes))
    jit_vm, plain_vm = assert_jit_identical(program, timer_interval=2003)
    assert _site_states(jit_vm) == _site_states(plain_vm) == [state]
    assert jit_vm.jit_poly_calls > 500
    assert jit_vm.jit_guard_exits < 100
    assert jit_vm.jit_poly_calls + jit_vm.jit_guard_exits <= jit_vm.ic_misses
    profile = ReceiverProfile.from_cache(jit_vm.code_cache)
    (site,) = profile.sites
    assert len(profile.sites[site]) == classes
    assert sum(profile.sites[site].values()) == classes * 150 + 1500


def test_third_class_before_the_refresh_is_a_guard_exit():
    """``probe``'s site is compiled at poly(2) — two guards, no tail.
    ``C`` arrives between ticks: each call until the next tick misses
    both guards and exits, the interpreter binds ``C`` on the first,
    and the tick's recompile adds the tail that keeps the rest in
    generated code."""
    program = compile_source(PHASE_CHANGE)
    jit_vm, _ = assert_jit_identical(program, timer_interval=20011)
    probe_exits = [
        row for row in exit_sites(jit_vm) if row[0] == "probe" and row[2] == "guard"
    ]
    assert len(probe_exits) == 1
    assert probe_exits[0][3] == jit_vm.jit_guard_exits > 0
    assert jit_vm.jit_poly_calls > 0
    # ``C`` made 999 calls; every one was a miss, by exit or by tail.
    assert jit_vm.jit_guard_exits + jit_vm.jit_poly_calls == 999


def _mega_missing_selector(good=10, rounds=60):
    """A site megamorphic over ``good`` classes for ``rounds`` turns of
    the receiver array, then handed a class without the selector."""
    lines = []
    for k in range(good):
        lines += [f"class C{k}", f"method C{k}.f/1", f"  PUSH {k}", "  RETURN_VAL", "end"]
    lines.append("class X")
    lines += ["func main/0 locals=3 void", f"  PUSH {good + 1}", "  NEW_ARRAY", "  STORE 0"]
    for k in range(good):
        lines += ["  LOAD 0", f"  PUSH {k}", f"  NEW C{k}", "  ASTORE"]
    lines += ["  LOAD 0", f"  PUSH {good}", "  NEW X", "  ASTORE"]
    lines += [
        "  PUSH 0", "  STORE 1", "  PUSH 0", "  STORE 2",
        "label loop",
        "  LOAD 0",
        "  LOAD 1", f"  PUSH {good * rounds}", "  LT", "  JUMP_IF_FALSE bad",
        "  LOAD 1", f"  PUSH {good}", "  MOD",
        "  JUMP index",
        "label bad",
        f"  PUSH {good}",
        "label index",
        "  ALOAD",
        "  CALL_VIRTUAL f 0",
        "  LOAD 2", "  ADD", "  STORE 2",
        "  LOAD 1", "  PUSH 1", "  ADD", "  STORE 1",
        "  JUMP loop",
        "end",
    ]
    return "\n".join(lines)


def test_missing_selector_at_a_megamorphic_tail():
    """The flat table has no row entry for the class: the tail exits
    before it has counted anything and the interpreter raises, with the
    miss it counts itself."""
    program = assemble(_mega_missing_selector(), verify=False)
    jit_transcript, jit_vm = _fail(program, VMError, jit=True, timer_interval=2003)
    plain_transcript, _ = _fail(program, VMError, jit=False, timer_interval=2003)
    assert jit_transcript == plain_transcript
    assert jit_transcript[1].startswith("class 'X' does not understand f/0")
    assert jit_vm.jit_poly_calls > 100
    assert_exit_accounting(jit_vm)


def test_null_receiver_at_a_polymorphic_tail():
    program = compile_source(_widening(4, null_at=2000))
    jit_transcript, jit_vm = _fail(
        program, NullPointerError, jit=True, timer_interval=2003
    )
    plain_transcript, _ = _fail(
        program, NullPointerError, jit=False, timer_interval=2003
    )
    assert jit_transcript == plain_transcript
    assert jit_transcript[1].startswith("virtual call on null")
    assert jit_vm.jit_poly_calls > 100
    assert_exit_accounting(jit_vm)


@pytest.mark.parametrize("interval", [97, 523, 1009])
@pytest.mark.parametrize("profiler", ["none", "cbs-brief", "timer"])
@pytest.mark.parametrize("callee", ["leaf", "chain"])
def test_ticks_on_the_tails_call_charge(callee, profiler, interval):
    """Tiny intervals put ticks on the tail's own charge (the deopt
    before the closure call, or before the callee's frame is pushed)
    and, with ``chain`` callees, inside ``inner`` four direct calls
    below the tail — the hand-back then comes up through the tail's
    ``_r is None`` exit.  DCG, samples, misses and receiver cells match
    in every cell.  The tail completes calls wherever generated code
    gets a turn (see ``NO_NESTED_TICKS``) and the call fits between two
    ticks — a trip down the chain costs more than 97."""
    source = _widening(16) if callee == "leaf" else _widening_chain(16, step=40)
    jit_vm, _ = assert_jit_identical(
        compile_source(source), "jikes", profiler, timer_interval=interval
    )
    assert jit_vm.jit_deopts > 0
    if (profiler, interval) != ("cbs-brief", 97):
        fits = callee == "leaf" or interval > 97
        assert (jit_vm.jit_poly_calls > 0) == fits
        if callee == "chain":
            assert jit_vm.jit_unwinds > 0


def test_fault_below_a_tail_callee():
    """``inner`` divides by ``d``, which the widening loop walks down to
    zero: the fault is raised from frames the interpreter rebuilt by
    replaying the tail's call, which only then counts as a miss."""
    source = _widening_chain(4).replace("1200 - i % 1100", "1200 - i")
    program = compile_source(source)
    jit_transcript, jit_vm = _fail(program, DivisionByZeroError, jit=True)
    plain_transcript, _ = _fail(program, DivisionByZeroError, jit=False)
    assert jit_transcript == plain_transcript
    assert jit_transcript[2] == "inner"
    assert jit_vm.jit_poly_calls > 0
    assert jit_vm.jit_unwinds >= 4
    assert_exit_accounting(jit_vm)


RING = """
class R0 {{
  var next: R0;
  def down(n: int): int {{
    if (n == 0) {{ return 0; }}
    return this.next.down(n - 1) + 1;
  }}
}}
class R1 extends R0 {{ }}
class R2 extends R0 {{ }}
class R3 extends R0 {{ }}
def main() {{
  var a = new R0();
  var b = new R1();
  var c = new R2();
  var d = new R3();
  a.next = b; b.next = c; c.next = d; d.next = a;
  print(a.down({warm}));
  print(a.down({warm}));
  print(a.down({depth}));
}}
"""


def test_tail_recursion_outlives_the_host_stack():
    """One site, four receiver classes, one recursive target: the
    tail's direct calls nest until ``MAX_DIRECT_DEPTH`` (its ``not
    _go`` call exit), hand the chain back and start the next one."""
    program = compile_source(RING.format(warm=600, depth=3000))
    jit_vm, _ = assert_jit_identical(program, timer_interval=2003)
    assert jit_vm.jit_poly_calls > 0
    assert jit_vm.jit_unwinds > 2000


def test_tail_at_max_frames_faults_identically():
    program = compile_source(RING.format(warm=600, depth=5000))
    kwargs = {"timer_interval": 2003}
    jit_transcript, jit_vm = _fail(program, StackOverflowError_, jit=True, **kwargs)
    plain_transcript, _ = _fail(program, StackOverflowError_, jit=False, **kwargs)
    assert jit_transcript == plain_transcript
    assert jit_transcript[1].startswith("guest stack exceeded 4096 frames")
    assert jit_vm.jit_poly_calls > 0
    assert_exit_accounting(jit_vm)


# -- benchsuite spot checks -------------------------------------------------------


@pytest.mark.parametrize("name", ["jess", "compress", "mtrt"])
@pytest.mark.parametrize("profiler", ["none", "cbs"])
def test_benchsuite_identical(name, profiler):
    assert_jit_identical(program_for(name, "tiny"), "jikes", profiler)


def test_benchsuite_identical_j9():
    assert_jit_identical(program_for("javac", "tiny"), "j9", "cbs")


def test_large_size_spot_check():
    jit_vm, _ = assert_jit_identical(program_for("jess", "small"), "jikes", "cbs")
    # A real workload exercises the exit classes: ``main`` is entered by
    # the interpreter and returns to it, and a tick inside a directly
    # entered callee makes the caller's site a call exit.  The third
    # receiver class at ``Network.assert``'s site used to miss the
    # baked guards 2 697 times; it now goes through the site's
    # polymorphic tail, and a guard exit is left only for the few calls
    # between a class being bound and the next tick's recompile.
    assert jit_vm.jit_deopts > 0
    assert jit_vm.jit_guard_exits < 50
    assert jit_vm.jit_poly_calls > 2000
    assert jit_vm.jit_call_exits > 0
    assert jit_vm.jit_return_exits > 0


def test_call_heavy_workload_keeps_its_calls_in_generated_code():
    jit_vm, _ = assert_jit_identical(program_for("mtrt", "small"))
    assert jit_vm.jit_direct_calls > 10 * jit_vm.jit_call_exits
