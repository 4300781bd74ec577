"""Error-path parity: faulting runs are bit-identical across configs.

A guest fault is part of the observable transcript, so the identity
invariants extend to it: the error type, message, faulting method/pc,
printed output, and the synced ``vm.steps``/``vm.time``/``vm.call_count``
must not depend on fusion or inline caches.  The fused handlers need
care here — a superinstruction charges its whole group's cost up front,
so a fault from an interior component must give back the charge for the
components the raw run never executed.

The ``PUSH; MOD`` tests hand-patch the quickened view's operand array
to smuggle a zero divisor past the fuse-time guard: hand-assembled (or
future) pipelines can produce such streams, and the handler must fault
exactly like the raw ``MOD`` — not crash the host with a Python
``ZeroDivisionError``.  The null-receiver tests hold a ``GETFIELD``
fault, inside a window and at its end, to the raw run's charge.  Superinstructions
are found by their components (:func:`tests.helpers.fused_id`), never by
a hard-coded id: the table is measured.
"""

from __future__ import annotations

import pytest

from repro.bytecode.assembler import assemble
from repro.frontend.codegen import compile_source
from repro.profiling.cbs import CBSProfiler
from repro.vm.config import jikes_config
from repro.vm.errors import DivisionByZeroError, NullPointerError
from repro.vm.interpreter import Interpreter
from tests.helpers import fused_id

CONFIGS = [
    pytest.param(False, False, id="raw"),
    pytest.param(True, False, id="fused"),
    pytest.param(False, True, id="ic"),
    pytest.param(True, True, id="fused+ic"),
]

DIV_LOOP = """
def main() {
  var total = 0;
  for (var i = 0; i < 120; i = i + 1) { total = (total + i * 3) % 9973; }
  print(total);
  var d = 4;
  for (var j = 0; j < 5; j = j + 1) {
    total = total + 1000 / d;
    d = d - 1;
  }
  print(total);
}
"""


def _fail(program, exc_type, fuse, ic, profiler=False, **overrides):
    vm = Interpreter(program, jikes_config(fuse=fuse, ic=ic, **overrides))
    if profiler:
        vm.attach_profiler(CBSProfiler(stride=3, samples_per_tick=16, seed=7))
    with pytest.raises(exc_type) as excinfo:
        vm.run()
    error = excinfo.value
    return (
        type(error).__name__,
        str(error),
        error.function,
        error.pc,
        tuple(vm.output),
        vm.steps,
        vm.time,
        vm.ticks,
        vm.call_count,
    )


@pytest.mark.parametrize("fuse,ic", CONFIGS)
def test_div_zero_transcript_synced(fuse, ic):
    program = compile_source(DIV_LOOP)
    transcript = _fail(program, DivisionByZeroError, fuse, ic)
    # The pre-fault prints happened and the counters are live, not the
    # stale values from the last tick sync.
    assert len(transcript[4]) == 1
    assert transcript[5] > 0 and transcript[6] > 0


def test_div_zero_transcripts_identical_across_configs():
    program = compile_source(DIV_LOOP)
    transcripts = {
        _fail(program, DivisionByZeroError, fuse, ic)
        for fuse in (False, True)
        for ic in (False, True)
    }
    assert len(transcripts) == 1


def test_div_zero_identical_with_profiler_attached():
    """Error runs under CBS sampling stay identical too (small interval
    so ticks actually fire before the fault)."""
    program = compile_source(DIV_LOOP)
    transcripts = {
        _fail(
            program,
            DivisionByZeroError,
            fuse,
            ic,
            profiler=True,
            timer_interval=997,
        )
        for fuse in (False, True)
        for ic in (False, True)
    }
    assert len(transcripts) == 1


# -- PUSH; MOD with a zero divisor (hand-patched quickened stream) ------------

#: ``PUSH 23; PUSH k; MOD`` — the leading PUSH blocks LOAD_PUSH fusion,
#: so the tail quickens to PUSH_MOD when k != 0.
PUSH_MOD = """
func main/0 locals=1 void
  PUSH 23
  PUSH {k}
  MOD
  PRINT
  RETURN
end
"""


def _patched_push_mod_vm():
    """A VM whose main has a genuine PUSH_MOD superinstruction with
    its immediate patched to zero, bypassing the fuse-time guard."""
    program = assemble(PUSH_MOD.format(k=4))
    vm = Interpreter(program, jikes_config(fuse=True, ic=False))
    method = vm.code_cache.current(program.entry_index)
    pcs = [pc for pc, op in enumerate(method.fops) if op == fused_id("PUSH", "MOD")]
    assert pcs, "PUSH;MOD failed to quicken — test premise broken"
    method.fa[pcs[0]] = 0
    return vm


def test_fused_push_mod_zero_matches_raw_handler():
    patched = _patched_push_mod_vm()
    with pytest.raises(DivisionByZeroError) as fused_info:
        patched.run()

    # Reference: the same stream written with a real zero.  The
    # fuse-time guard refuses PUSH_MOD, so the raw MOD handler faults.
    raw_program = assemble(PUSH_MOD.format(k=0))
    raw_vm = Interpreter(raw_program, jikes_config(fuse=True, ic=False))
    with pytest.raises(DivisionByZeroError) as raw_info:
        raw_vm.run()

    assert str(fused_info.value) == str(raw_info.value)
    assert fused_info.value.function == raw_info.value.function
    assert fused_info.value.pc == raw_info.value.pc
    assert patched.steps == raw_vm.steps
    assert patched.time == raw_vm.time


def test_zero_push_mod_never_quickens():
    """The fuse-time guard: a literal ``PUSH 0; MOD`` stays raw."""
    program = assemble(PUSH_MOD.format(k=0))
    vm = Interpreter(program, jikes_config(fuse=True, ic=False))
    method = vm.code_cache.current(program.entry_index)
    assert fused_id("PUSH", "MOD") not in list(method.fops)


# -- LOAD; GETFIELD; LOAD faulting on a null receiver ---------------------------

#: ``NOP`` fences the LOAD;GETFIELD;LOAD window so it quickens alone.
NULL_FIELD_LOAD = """
class P fields v
func main/0 locals=2 void
  PUSH 101
  PRINT
  PUSH_NULL
  STORE 0
  NOP
  LOAD 0
  GETFIELD P.v
  LOAD 1
  NOP
  RETURN
end
"""


#: The first table's ``LOAD; GETFIELD; STORE`` shape: ``PUSH 1; POP``
#: fences it, and it quickens to the one superinstruction ``LOAD;
#: GETFIELD; STORE``; a ``NOP`` at ``{fence}`` leaves ``LOAD; GETFIELD``
#: and two raw ops.
NULL_FIELD_STORE = """
class P fields v
func main/0 locals=2 void
  PUSH 101
  PRINT
  PUSH_NULL
  STORE 0
  PUSH 1
  POP
  LOAD 0
  GETFIELD P.v
  {fence}STORE 1
  RETURN
end
"""


def _assert_null_field_matches_raw(source, window):
    program = assemble(source)
    fused_vm = Interpreter(program, jikes_config(fuse=True, ic=False))
    method = fused_vm.code_cache.current(program.entry_index)
    assert fused_id(*window) in list(method.fops)

    transcripts = {
        _fail(program, NullPointerError, fuse, ic)
        for fuse in (False, True)
        for ic in (False, True)
    }
    assert len(transcripts) == 1
    transcript = transcripts.pop()
    assert transcript[4] == (101,)
    assert transcript[5] > 0


def test_fused_getfield_null_matches_raw():
    """The triple's head charges LOAD+GETFIELD+LOAD up front; a null
    fault at the interior GETFIELD must refund the LOAD the raw run
    never reached."""
    _assert_null_field_matches_raw(NULL_FIELD_LOAD, ("LOAD", "GETFIELD", "LOAD"))


def test_fused_getfield_store_null_matches_raw():
    """A null fault at the last component of a group, with the raw
    ``STORE`` after it never reached, charges what the raw run does."""
    _assert_null_field_matches_raw(
        NULL_FIELD_STORE.format(fence="NOP\n  "), ("LOAD", "GETFIELD")
    )


def test_fused_getfield_store_null_refunds_the_store():
    """The whole shape fused: the fault at the interior ``GETFIELD``
    gives back the ``STORE`` the head charged up front."""
    _assert_null_field_matches_raw(
        NULL_FIELD_STORE.format(fence=""), ("LOAD", "GETFIELD", "STORE")
    )
