"""Every superinstruction, one at a time, against the spec executor.

The fused twin of ``test_optemplates.py``.  A fused arm of the generated
loop is its components run through :mod:`repro.vm.optemplates` under
``dispatchgen.ArmContext``; the windows are whatever ``dispatchgen
--measure`` chose, so each test program is built from the window's
components and their ``OpSpec`` rows alone, by the typed symbolic run
the fuzzer's window shape uses (:class:`repro.fuzz.genasm.Window`).

For each id in ``fuse.FUSED_COMPONENTS`` a ``subject`` method holds
exactly that window between two ``NOP`` fences (``NOP`` is in no
window, so no neighbour joins the group and no longer window matches).
The typed run says what each operand must be — an int, a ``Point``,
an array of ints or of points, an array to store into — and every
operand the window finds on the stack or ``LOAD``s arrives as its own
parameter of ``subject``.  ``main`` calls it in a
loop with a rising first int, which takes a ``cmp`` + ``JUMP_IF_FALSE``
tail both ways.  Fused (with and without inline caches), unfused and
:func:`run_spec_reference` must agree on output, virtual time, steps,
ticks, calls and the fault tuple

* plain,
* under a timer interval that lands a tick on every component of the
  window that can take one (the de-quicken path), and
* with a last call that drives each faultable component into each of
  its fault modes (the mid-group refund: the attributed pc, and the
  trailing components' charge given back).  The bad argument is found
  by trying each parameter against a small pool of bad values.

The windows of earlier tables that measurement dropped — the first,
hand-picked table's and the four-wide measured one's — stay under test
by their names: whatever of the measured table matches inside one
quickens, and the loop must still run the shape like the spec, with a
tick on each of its components and a fault in each of its faultable
ones.
"""

from __future__ import annotations

import pytest

from repro.bytecode.assembler import assemble
from repro.bytecode.opcodes import Op, spec_of
from repro.fuzz.genasm import FIRST, LENGTH, MID, Window
from repro.fuzz.specexec import run_spec_reference
from repro.vm import fuse
from repro.vm.config import config_named
from repro.vm.interpreter import Interpreter
from tests.helpers import run_transcript

CALLS = 24

#: main's locals: every argument ``subject`` is ever passed.  ``hollow``
#: is a Point with ``x`` 0 and null ``p``/``arr``; ``far`` is a Point
#: whose ``x`` indexes past every array, whose ``p`` is itself and whose
#: ``arr`` is empty, so an index or an array a window reads from a field
#: can be out of bounds; ``zeros``/``nulls`` are arrays of zeros and of
#: nulls.
POOL = (
    "point", "rising", "mid", "ints", "points", "sink", "null", "zero",
    "big", "hollow", "empty", "zeros", "nulls", "i", "far",
)
SLOT = {name: slot for slot, name in enumerate(POOL)}
#: Parameter type -> its argument on an ordinary call.
GOOD = {"obj": "point", "ints": "ints", "points": "points", "sink": "sink"}
#: Parameter type -> the bad arguments a faulting last call tries.
BAD = {
    "int": ("zero", "big"),
    "obj": ("null", "hollow", "far"),
    "ints": ("null", "empty", "zeros"),
    "points": ("null", "empty", "nulls"),
    "sink": ("null", "empty"),
}
ERRORS = {
    "null": "NullPointerError",
    "bounds": "ArrayBoundsError",
    "div_zero": "DivisionByZeroError",
}
#: Arguments for the untyped parameters (``EQ``/``NE`` operands).
SCENARIOS = {"ints": ("rising", "mid")}
EQ_SCENARIOS = {**SCENARIOS, "same-object": ("point", "point"), "object-int": ("point", "rising")}


#: The first fused table, picked by hand before the table was measured.
FIRST_TABLE = (
    *((head, tail) for head in ("LOAD", "PUSH") for tail in ("ADD", "SUB", "MUL")),
    ("LOAD", "LOAD"), ("LOAD", "PUSH"), ("LOAD", "GETFIELD"), ("PUSH", "STORE"),
    ("PUSH", "MOD"), ("STORE", "LOAD"), ("LOAD", "RETURN_VAL"),
    *((cmp, "JUMP_IF_FALSE") for cmp in ("LT", "LE", "GT", "GE", "EQ", "NE")),
    ("LOAD", "PUSH", "ADD"), ("LOAD", "PUSH", "SUB"), ("LOAD", "PUSH", "MUL"),
    ("LOAD", "LOAD", "ADD"), ("PUSH", "ADD", "STORE"), ("LOAD", "GETFIELD", "STORE"),
    ("LOAD", "PUSH", "ADD", "STORE"), ("LOAD", "PUSH", "ADD", "RETURN_VAL"),
    *(("LOAD", "PUSH", cmp, "JUMP_IF_FALSE") for cmp in ("LT", "LE", "GT", "GE", "EQ", "NE")),
    *(("LOAD", "LOAD", cmp, "JUMP_IF_FALSE") for cmp in ("LT", "LE", "GT", "GE")),
)
#: The windows of two to four ops the eight-wide measurement dropped.
FOUR_WIDE_TABLE = (
    ("LOAD", "PUSH", "MUL"), ("MOD", "ALOAD", "GETFIELD", "PUSH"),
    ("PUSH", "ADD", "PUTFIELD"), ("EQ", "JUMP_IF_FALSE"), ("ALOAD", "MUL", "PUSH", "DIV"),
    ("PUSH", "SUB", "ALOAD", "ASTORE"), ("SUB", "STORE"), ("LOAD", "ADD", "LOAD"),
    ("LOAD", "PUSH", "MUL", "PUSH"), ("NE", "JUMP_IF_FALSE"), ("ALOAD", "LOAD", "LOAD"),
    ("ADD", "STORE"), ("SUB", "ALOAD", "LOAD"), ("ALOAD", "STORE", "LOAD", "LOAD"),
    ("LOAD", "LOAD", "PUSH", "MOD"), ("LOAD", "LOAD", "ALOAD", "ASTORE"),
    ("STORE", "LOAD", "LOAD", "GETFIELD"),
)
#: Window -> its superinstruction id; a dropped window has none.
FIDS = {names: fuse.FUSE_BASE + i for i, names in enumerate(fuse.WINDOWS)}
#: Every window under test: the measured table's, then the dropped ones.
SUBJECTS = tuple(dict.fromkeys((*fuse.WINDOWS, *FIRST_TABLE, *FOUR_WIDE_TABLE)))


def _window(names) -> Window:
    return Window(tuple(Op[name] for name in names))


def _name(names) -> str:
    return "_".join(names)


def _untyped(window: Window) -> bool:
    return any(window.type_of(value) == "any" for value in window.sources)


def _arguments(window: Window, scenario: str = "ints") -> list[tuple[str, str]]:
    """``(type, argument)`` per parameter of ``subject``, one per source
    of the window.  The first int rises; a comparing window gets MID for
    its other ints, any other window the rising int again."""
    compares = {"cmp", "eqcmp"} & {spec_of(comp).kind for comp in window.comps}
    ints = iter(("rising", *["mid" if compares else "rising"] * 4))
    free = iter(EQ_SCENARIOS[scenario])
    arguments = []
    for value in window.sources:
        kind = window.type_of(value)
        if kind == "any":
            arguments.append((kind, next(free)))
        elif kind == "int":
            arguments.append((kind, next(ints)))
        else:
            arguments.append((kind, GOOD[kind]))
    return arguments


def _program(window: Window, scenario="ints", last=None, zero_push=None):
    """The program, ``subject``'s index and the pc of the window's head.
    ``last`` = ``(parameter, argument)`` adds one more call with that
    argument swapped in."""
    params = _arguments(window, scenario)
    returns = window.tail == "return"
    slots = range(len(params))
    scratch = len(params)
    ints_at = {n for n, (_type, name) in enumerate(params) if name in ("rising", "mid")}
    epilogue = window.epilogue(ints_at, scratch)
    subject = [
        # PRINT keeps subject a real frame: a leaf template would run
        # it as a closure and never dispatch the window.
        "PUSH 7", "PRINT",
        *(f"LOAD {slot}" for slot in range(len(window.reals))),
        "NOP", *window.lines(slots, scratch, "Point", "taken", zero_push),
    ]
    if not returns:
        subject += ["NOP", *epilogue, "PUSH 1", "PRINT", "RETURN"]
    if window.tail == "branch":
        subject += ["label taken", *epilogue, "PUSH 2", "PRINT", "RETURN"]

    def call(swap=None):
        args = [name for _type, name in params]
        if swap is not None:
            args[swap[0]] = swap[1]
        return [
            *(f"LOAD {SLOT[name]}" for name in args),
            f"CALL_STATIC subject {len(params)}",
            *(["PRINT"] if returns else []),
        ]

    def local(name, *init):
        return [*init, f"STORE {SLOT[name]}"]

    def fill(array, *value):
        return [f"LOAD {SLOT[array]}", f"LOAD {SLOT['i']}", *value, "ASTORE"]

    main = [
        *local("point", "NEW Point"),
        *local("hollow", "NEW Point"),
        *local("far", "NEW Point"),
        *local("ints", f"PUSH {LENGTH}", "NEW_ARRAY"),
        *local("points", f"PUSH {LENGTH}", "NEW_ARRAY"),
        *local("nulls", f"PUSH {LENGTH}", "NEW_ARRAY"),
        *local("zeros", f"PUSH {LENGTH}", "NEW_ARRAY"),
        *local("sink", f"PUSH {LENGTH}", "NEW_ARRAY"),
        *local("empty", "PUSH 0", "NEW_ARRAY"),
        *local("null", "PUSH_NULL"),
        *local("zero", "PUSH 0"),
        *local("big", "PUSH 999"),
        *local("mid", f"PUSH {MID}"),
        *local("i", "PUSH 0"),
        "LOAD 0", "PUSH 5", "PUTFIELD Point.x",
        "LOAD 0", "LOAD 0", "PUTFIELD Point.p",
        "LOAD 0", f"LOAD {SLOT['ints']}", "PUTFIELD Point.arr",
        "LOAD 0", "PUSH 0", "PUTFIELD Point.w",
        f"LOAD {SLOT['hollow']}", "PUSH_NULL", "PUTFIELD Point.p",
        f"LOAD {SLOT['hollow']}", "PUSH_NULL", "PUTFIELD Point.arr",
        f"LOAD {SLOT['far']}", "PUSH 999", "PUTFIELD Point.x",
        f"LOAD {SLOT['far']}", f"LOAD {SLOT['far']}", "PUTFIELD Point.p",
        f"LOAD {SLOT['far']}", f"LOAD {SLOT['empty']}", "PUTFIELD Point.arr",
        "label fill",
        *fill("ints", f"LOAD {SLOT['i']}", "PUSH 1", "ADD"),
        *fill("points", "LOAD 0"),
        *fill("nulls", "PUSH_NULL"),
        *local("i", f"LOAD {SLOT['i']}", "PUSH 1", "ADD"),
        f"LOAD {SLOT['i']}", f"PUSH {LENGTH}", "LT", "JUMP_IF_TRUE fill",
        *local("rising", f"PUSH {FIRST}"),
        "label loop",
        *call(),
        *local("rising", f"LOAD {SLOT['rising']}", "PUSH 1", "ADD"),
        f"LOAD {SLOT['rising']}", f"PUSH {FIRST + CALLS}", "LT", "JUMP_IF_TRUE loop",
        *(call(last) if last is not None else []),
        "RETURN",
    ]
    text = "\n".join(
        [
            "class Point fields x p arr w",
            "method Point.m/1 locals=1",
            "  PUSH 1",
            "  RETURN_VAL",
            "end",
            f"func subject/{len(params)} locals={len(params) + 1}{'' if returns else ' void'}",
            *(line if line.startswith("label") else f"  {line}" for line in subject),
            "end",
            f"func main/0 locals={len(POOL)} void",
            *(line if line.startswith("label") else f"  {line}" for line in main),
            "end",
        ]
    )
    program = assemble(text)
    head = 2 + len(window.reals) + 1  # PUSH, PRINT, the loads, the fence
    return program, program.function_index("subject"), head


def _assert_conforms(names, program, subject, head, fused=True, **overrides):
    expected = run_spec_reference(
        program, config_named("jikes", fuse=False, ic=False, **overrides)
    )
    for flags in ({"fuse": False, "ic": False}, {"ic": False}, {"ic": True}):
        vm, got = run_transcript(program, config_named("jikes", **flags, **overrides))
        assert got == expected, flags
        if flags.get("fuse", True) and names in FIDS:
            fops = vm.code_cache.methods[subject].fops
            assert (fops[head] == FIDS[names]) == fused, _name(names)
    return expected, vm  # the fully quickened VM


def _grouped(program, subject, head, arity) -> set[int]:
    """The window's pcs that the fused loop runs inside a superinstruction:
    all of them for a measured window, those of the sub-windows the
    measured table matches for a dropped one."""
    fops = Interpreter(program, config_named("jikes")).code_cache.methods[subject].fops
    grouped = set()
    for pc in range(head, head + arity):
        if fops[pc] in fuse.FUSED_ARITY:
            grouped.update(range(pc, pc + fuse.FUSED_ARITY[fops[pc]]))
    return grouped & set(range(head, head + arity))


def _params():
    for names in SUBJECTS:
        scenarios = EQ_SCENARIOS if _untyped(_window(names)) else SCENARIOS
        for label in scenarios:
            yield pytest.param(names, label, id=f"{_name(names)}-{label}")


@pytest.mark.parametrize("names,scenario", _params())
def test_fused_arm_conforms_to_spec(names, scenario):
    program, subject, head = _program(_window(names), scenario)
    expected, _vm = _assert_conforms(names, program, subject, head)
    assert expected["error"] is None


@pytest.mark.parametrize("names", SUBJECTS, ids=_name)
def test_tick_on_every_component_dequickens_identically(names):
    """Some interval puts a tick on every component of the window whose
    charge can cross the boundary; under it the fused loop de-quickens
    every grouped one and the transcript still matches."""
    program, subject, head = _program(_window(names))
    raw_costs = Interpreter(program, config_named("jikes")).code_cache.methods[subject].costs
    wanted = {
        head + off
        for off in range(len(names))
        if raw_costs[head + off] > 0
    }
    for interval in (17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
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
        names, program, subject, head, timer_interval=interval
    )
    assert vm.fusion_deopts >= len(wanted & _grouped(program, subject, head, len(names)))
    assert vm.fused_dispatches > 0


def _fault_params():
    for names in SUBJECTS:
        for off, name in enumerate(names):
            # The offset joins the id only when the op occurs twice.
            where = f"@{off}" if names.count(name) > 1 else ""
            for fault in spec_of(Op[name]).faults:
                yield pytest.param(
                    names, off, fault.kind,
                    id=f"{_name(names)}-{name}{where}-{fault.kind}",
                )


def _faulting_call(window: Window, off: int, kind: str):
    """The first ``(parameter, bad argument)`` whose last call faults
    with ``kind`` at component ``off`` of the window."""
    for index, (type_, _good) in enumerate(_arguments(window)):
        for bad in BAD.get(type_, ()):
            program, _subject, head = _program(window, last=(index, bad))
            _vm, got = run_transcript(program, config_named("jikes", fuse=False, ic=False))
            if got["error"] and got["error"][0] == ERRORS[kind] and got["error"][2:] == (
                "subject", head + off
            ):
                return index, bad
    raise AssertionError(f"no bad argument faults {kind} at component {off}")


@pytest.mark.parametrize("names,off,kind", _fault_params())
def test_mid_group_fault_refunds_the_trailing_components(names, off, kind):
    window = _window(names)
    if kind == "div_zero" and off - 1 in fuse.divisor_pushes(window.comps):
        # The fuser's guard keeps ``PUSH 0`` feeding a divide out of the
        # window, so the mode is unreachable in the fused arm: the window
        # stays raw and faults exactly like the reference.
        program, subject, head = _program(window, zero_push=off - 1)
        expected, _vm = _assert_conforms(names, program, subject, head, fused=False)
        assert expected["error"][0] == ERRORS[kind]
        assert expected["error"][2:] == ("subject", head + off)
        return
    program, subject, head = _program(window, last=_faulting_call(window, off, kind))
    expected, vm = _assert_conforms(names, program, subject, head)
    name, _message, function, pc = expected["error"]
    assert name == ERRORS[kind]
    assert (function, pc) == ("subject", head + off)
    # The head charged the whole group up front; ``time`` and ``steps``
    # equal to the reference's say the fault gave the rest back.
    assert vm.fused_dispatches > CALLS


def test_every_faultable_component_is_covered():
    kinds = {p.values[2] for p in _fault_params()}
    assert kinds <= set(ERRORS), "a new fault mode needs a scenario here"
    assert kinds == {"null", "div_zero", "bounds"}
