"""Every superinstruction, one at a time, against the spec executor.

The fused twin of ``test_optemplates.py``.  A fused arm of the generated
loop is its components run through :mod:`repro.vm.optemplates` under
``dispatchgen.ArmContext``; ``dispatchgen --measure`` lists fused arms no
benchsuite program dispatches, so this file is the net under their
text.  For each id in ``fuse.FUSED_COMPONENTS`` a ``subject`` method
holds exactly that window between two ``NOP`` fences (``NOP`` is not
fusable, so no neighbour joins the group and no longer pattern matches)
and is called in a loop with a rising first int operand, which takes a
``cmp`` + ``JUMP_IF_FALSE`` tail both ways.  Fused (with and without
inline caches), unfused and :func:`run_spec_reference` must agree on
output, virtual time, steps, ticks, calls and the fault tuple

* plain,
* under a timer interval that lands a tick on every component of the
  window that can take one (the de-quicken path), and
* with a last call that drives each faultable component into each of
  its fault modes (the mid-group refund: the attributed pc, and the
  trailing components' charge given back).
"""

from __future__ import annotations

import pytest

from repro.bytecode.assembler import assemble
from repro.bytecode.opcodes import Op, spec_of
from repro.fuzz.specexec import run_spec_reference
from repro.vm import fuse
from repro.vm.config import config_named
from repro.vm.interpreter import Interpreter
from tests.helpers import run_transcript

CALLS = 24
#: subject's locals: 0 = a Point with x == 5 (null on a faulting last
#: call), 1 = the rising int, 2 = the int 2, 3 = scratch (STORE target).
OBJ, RISING, TWO, SCRATCH = range(4)

#: Real operands the window finds on the stack, by scenario: the slots
#: ``subject`` loads before the leading fence.
INTS = (RISING, TWO)
SCENARIOS = {"ints": INTS}
EQ_SCENARIOS = {"ints": INTS, "same-object": (OBJ, OBJ), "object-int": (OBJ, RISING)}


def _window(fid: int) -> tuple[list[str], int, int]:
    """The window's assembler lines, the real operands it consumes and
    the values it leaves behind."""
    comps = [Op(c) for c in fuse.FUSED_COMPONENTS[fid]]
    lines, loads = [], 0
    need = depth = 0
    for i, comp in enumerate(comps):
        spec = spec_of(comp)
        need += max(spec.pops - depth, 0)
        depth = max(depth - spec.pops, 0) + spec.pushes
        if comp == Op.LOAD:
            getfield_next = i + 1 < len(comps) and comps[i + 1] == Op.GETFIELD
            lines.append(f"LOAD {OBJ if getfield_next else INTS[loads]}")
            loads += not getfield_next
        elif comp == Op.PUSH:
            lines.append("PUSH 3")
        elif comp == Op.STORE:
            lines.append(f"STORE {SCRATCH}")
        elif comp == Op.GETFIELD:
            lines.append("GETFIELD 0")
        elif comp == Op.JUMP_IF_FALSE:
            lines.append("JUMP_IF_FALSE taken")
        else:
            lines.append(comp.name)
    return lines, need, depth


def _program(fid: int, reals, fault: str | None, window=None):
    lines, need, results = window or _window(fid)
    tail = spec_of(fuse.FUSED_COMPONENTS[fid][-1]).kind
    returns = tail == "return"
    subject = [
        # PRINT keeps subject a real frame: a leaf template would run
        # it as a closure and never dispatch the window.
        "PUSH 7", "PRINT",
        *(f"LOAD {slot}" for slot in reals[len(reals) - need:]),
        "NOP", *lines,
    ]
    if not returns:
        subject += [
            "NOP", *(["PRINT"] * results),
            f"LOAD {SCRATCH}", "PRINT", "PUSH 1", "PRINT", "RETURN",
        ]
    if tail == "branch":
        subject += ["label taken", "PUSH 2", "PRINT", "RETURN"]
    last_call = []
    if fault == "null":
        last_call = ["PUSH_NULL", "PUSH 1", "PUSH 2", "CALL_STATIC subject 3",
                     *(["PRINT"] if returns else [])]
    text = "\n".join(
        [
            "class Point fields x",
            f"func subject/3 locals=4{'' if returns else ' void'}",
            *(line if line.startswith("label") else f"  {line}" for line in subject),
            "end",
            "func main/0 locals=2 void",
            "  NEW Point", "  STORE 0", "  LOAD 0", "  PUSH 5", "  PUTFIELD 0",
            "label loop",
            "  LOAD 0", "  LOAD 1", "  PUSH 2", "  CALL_STATIC subject 3",
            *(["  PRINT"] if returns else []),
            "  LOAD 1", "  PUSH 1", "  ADD", "  STORE 1",
            "  LOAD 1", f"  PUSH {CALLS}", "  LT", "  JUMP_IF_TRUE loop",
            *(f"  {line}" for line in last_call),
            "  RETURN",
            "end",
        ]
    )
    program = assemble(text)
    head = 2 + need + 1  # PUSH, PRINT, the loads, the fence
    return program, program.function_index("subject"), head


def _assert_conforms(fid, program, subject, head, fused=True, **overrides):
    expected = run_spec_reference(
        program, config_named("jikes", fuse=False, ic=False, **overrides)
    )
    for flags in ({"fuse": False, "ic": False}, {"ic": False}, {"ic": True}):
        vm, got = run_transcript(program, config_named("jikes", **flags, **overrides))
        assert got == expected, flags
        if flags.get("fuse", True):
            fops = vm.code_cache.methods[subject].fops
            assert (fops[head] == fid) == fused, fuse.FUSED_NAMES[fid]
    return expected, vm  # the fully quickened VM


def _params():
    for fid, comps in fuse.FUSED_COMPONENTS.items():
        eq = any(spec_of(c).kind == "eqcmp" for c in comps)
        real_operands = _window(fid)[1]
        scenarios = EQ_SCENARIOS if eq and real_operands else SCENARIOS
        for label, reals in scenarios.items():
            yield pytest.param(fid, reals, id=f"{fuse.FUSED_NAMES[fid]}-{label}")


@pytest.mark.parametrize("fid,reals", _params())
def test_fused_arm_conforms_to_spec(fid, reals):
    program, subject, head = _program(fid, reals, None)
    expected, _vm = _assert_conforms(fid, program, subject, head)
    assert expected["error"] is None


@pytest.mark.parametrize("fid", fuse.FUSED_COMPONENTS, ids=fuse.FUSED_NAMES.get)
def test_tick_on_every_component_dequickens_identically(fid):
    """Some interval puts a tick on every component of the window whose
    charge can cross the boundary; under it the fused loop de-quickens
    and the transcript still matches."""
    program, subject, head = _program(fid, INTS, None)
    raw_costs = Interpreter(program, config_named("jikes")).code_cache.methods[subject].costs
    wanted = {
        head + off
        for off in range(fuse.FUSED_ARITY[fid])
        if raw_costs[head + off] > 0
    }
    for interval in (17, 19, 23, 29, 31, 37, 41, 43):
        landed = set()

        def hook(vm):
            frame = vm.frames[-1]
            if frame.method.index == subject:
                landed.add(frame.pc)

        run_transcript(
            program,
            config_named("jikes", fuse=False, ic=False, timer_interval=interval),
            lambda vm: setattr(vm, "tick_hook", hook),
        )
        if wanted <= landed:
            break
    else:
        pytest.fail(f"no interval landed a tick on each of {sorted(wanted)}")
    _expected, vm = _assert_conforms(
        fid, program, subject, head, timer_interval=interval
    )
    assert vm.fusion_deopts >= len(wanted)
    assert vm.fused_dispatches > 0


def _fault_params():
    for fid, comps in fuse.FUSED_COMPONENTS.items():
        for off, comp in enumerate(comps):
            for fault in spec_of(comp).faults:
                yield pytest.param(
                    fid, off, fault.kind,
                    id=f"{fuse.FUSED_NAMES[fid]}-{Op(comp).name}-{fault.kind}",
                )


@pytest.mark.parametrize("fid,off,kind", _fault_params())
def test_mid_group_fault_refunds_the_trailing_components(fid, off, kind):
    if kind == "div_zero":
        # The fuser's guard keeps ``PUSH 0; MOD`` out of F_PUSH_MOD, so
        # the mode is unreachable in the fused arm: the window stays raw
        # and faults exactly like the reference.
        window = (["PUSH 0", "MOD"], 1, 1)
        program, subject, head = _program(fid, INTS, None, window)
        expected, _vm = _assert_conforms(fid, program, subject, head, fused=False)
        assert expected["error"][0] == "DivisionByZeroError"
        return
    program, subject, head = _program(fid, INTS, kind)
    expected, vm = _assert_conforms(fid, program, subject, head)
    name, _message, function, pc = expected["error"]
    assert name == "NullPointerError"
    assert (function, pc) == ("subject", head + off)
    # The head charged the whole group up front; ``time`` and ``steps``
    # equal to the reference's say the fault gave the rest back.
    assert vm.fused_dispatches > CALLS


def test_every_faultable_component_is_covered():
    kinds = {p.values[2] for p in _fault_params()}
    assert kinds == {"null", "div_zero"}, "a new fault mode needs a scenario here"
