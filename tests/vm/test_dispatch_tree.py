"""The generated loop's comparison tree: structure, and its fault leaves.

The tree is laid out by :mod:`repro.vm.dispatchgen` from measured
weights, so these tests check the generator's own account of it
(``build_tree`` / ``tree_path``) rather than the text of ``_dispatch.py``
— the ``--check`` test below ties the two together — and then drive the
real loop into every number no arm owns.  What an arm body *does* is
not this file's business: ``test_fused_arms.py``, the identity suites,
the corpus replay and the fuzz matrix (tests/fuzz, CI's ``fuzz-smoke``)
hold that.  Where a body *comes from* is: the routing tests below prove
every arm, data and control, is written by ``optemplates.emit``.
"""

from __future__ import annotations

import pytest

import re

from repro.benchsuite import program_for
from repro.bytecode.assembler import assemble
from repro.bytecode.opcodes import OPCODE_SPECS
from repro.vm import dispatchgen, fuse, ic, optemplates
from repro.vm.config import jikes_config
from repro.vm.errors import VMError
from repro.vm.interpreter import Interpreter
from repro.vm.jit import compiler as jit_compiler

NUMBERS = dispatchgen.OPCODE_NUMBERS
TREES = {True: dispatchgen.build_tree(raw=True), False: dispatchgen.build_tree(raw=False)}


def _tree_for(number: int):
    return TREES[number < fuse.FUSE_BASE]


def test_weights_cover_every_opcode_exactly_once():
    expected = (
        [spec.op.name for spec in OPCODE_SPECS]
        + ["IC_CALL_VIRTUAL", "IC_CALL_STATIC"]
        + [dispatchgen.arm_name(seq) for seq in fuse.FUSED_COMPONENTS.values()]
    )
    assert sorted(dispatchgen.ARM_WEIGHTS) == sorted(expected)
    assert NUMBERS["IC_CALL_STATIC"] == ic.OP_IC_CALL_STATIC
    assert all(isinstance(w, int) and w >= 0 for w in dispatchgen.ARM_WEIGHTS.values())


@pytest.mark.parametrize("name", sorted(NUMBERS, key=NUMBERS.get))
def test_every_opcode_reaches_exactly_its_own_arm(name):
    arm, tests = dispatchgen.tree_path(_tree_for(NUMBERS[name]), NUMBERS[name])
    assert arm == name
    assert tests >= 1
    # No other arm's test mentions this opcode.
    owners = [a for tree in TREES.values() for a in _leaf_arms(tree) if a == name]
    assert owners == [arm]


def _leaf_arms(node):
    if isinstance(node, dispatchgen.Split):
        yield from _leaf_arms(node.below)
        yield from _leaf_arms(node.above)
    else:
        yield from node.arms


def test_split_constants_partition_the_number_line():
    """Every pivot separates the numbers below it from those above: an
    in-order walk of the leaves meets the opcodes in increasing order."""
    for tree in TREES.values():
        leaves = []

        def walk(node, lo, hi):
            if isinstance(node, dispatchgen.Split):
                assert lo < node.pivot <= hi
                walk(node.below, lo, node.pivot - 1)
                walk(node.above, node.pivot, hi)
            else:
                numbers = [NUMBERS[name] for name in node.arms]
                assert all(lo <= n <= hi for n in numbers)
                leaves.append(numbers)

        walk(tree, -(10**9), 10**9)
        assert [min(ns) for ns in leaves] == sorted(min(ns) for ns in leaves)


UNASSIGNED = [n for n in range(0, 200) if n not in NUMBERS.values()]


def test_unassigned_numbers_walk_to_the_fault_exit():
    assert len(UNASSIGNED) == 200 - len([n for n in NUMBERS.values() if n < 200])
    for number in UNASSIGNED:
        assert dispatchgen.tree_path(_tree_for(number), number)[0] is None, number


def test_generation_is_deterministic_and_committed():
    first = dispatchgen.generate_source()
    assert first == dispatchgen.generate_source()
    assert first == dispatchgen.TARGET.read_text()
    assert "_hist" not in first
    assert first.count("unknown opcode") == first.count("unknown superinstruction") == 1


def test_check_prints_the_expected_comparisons(capsys):
    """The figure ``--check`` prints is the one ARM_WEIGHTS implies, it
    stays under a ceiling of 6.5 (4.66 today; the ``elif`` chain this
    tree replaced cost 14.3), and ``--check`` finds the committed
    ``_dispatch.py`` in sync with the specs."""
    weights = dispatchgen.ARM_WEIGHTS
    recomputed = sum(
        weight * dispatchgen.tree_path(_tree_for(NUMBERS[name]), NUMBERS[name])[1]
        for name, weight in weights.items()
    ) / sum(weights.values())
    assert dispatchgen.expected_comparisons() == pytest.approx(recomputed)
    assert recomputed <= 6.5
    assert dispatchgen.main(["--check"]) == 0
    assert f"{recomputed:.2f} expected comparisons per dispatch" in capsys.readouterr().out


def test_committed_tables_are_what_measurement_prints():
    """``dispatchgen --measure`` is deterministic: the windows it picks
    and the arm weights it derives for them are exactly what is
    committed, in order.  A hand-edited row, or a codegen or inliner
    change that moves the counts, fails here until re-measured."""
    weights, windows, _never = dispatchgen.measure_weights()
    assert list(windows.items()) == list(fuse.WINDOWS.items())
    assert list(weights.items()) == list(dispatchgen.ARM_WEIGHTS.items())


# -- routing: every arm is written by the one evaluator -------------------------


def arm_spans(source: str) -> dict[str, range]:
    """Opcode name -> the 1-based line numbers of the arm that owns it."""
    lines = source.split("\n")
    spans: dict[str, range] = {}
    for i, line in enumerate(lines):
        test = re.fullmatch(r"( *)(?:el)?if op == (?:OP_)?(\w+):", line)
        if test is None:
            continue
        end = i + 1
        while not lines[end].strip() or lines[end].startswith(test[1] + " "):
            end += 1
        spans[test[2]] = range(i + 2, end + 1)
    return spans


def _arm_bodies(source: str) -> dict[str, str]:
    """Opcode name -> the text of the arm that owns it."""
    lines = source.split("\n")
    return {
        name: "\n".join(lines[span.start - 1 : span.stop - 1])
        for name, span in arm_spans(source).items()
    }


def _kinds(number: int) -> list[str]:
    comps = fuse.FUSED_COMPONENTS.get(number, (number,))
    return [optemplates.spec_and_kind(comp)[1] for comp in comps]


@pytest.fixture
def marked_templates(monkeypatch):
    """Every template, data and control, also writes a comment naming
    its kind and the pc it was emitted for."""
    for kind, (template, leaf) in list(optemplates.TEMPLATES.items()):

        def marked(ctx, spec, a, b, vstack, _template=template, _kind=kind):
            ctx.w(f"# via optemplates: {_kind}. @{getattr(ctx, 'pc', '')}")
            _template(ctx, spec, a, b, vstack)

        monkeypatch.setitem(optemplates.TEMPLATES, kind, (marked, leaf))


def test_every_arm_is_emitted_by_optemplates(marked_templates):
    """Raw data and control arms, the two IC arms and every fused arm —
    its ``*_JIF`` / ``*_RET`` tail included — carry exactly the markers
    of their components' kinds, in order."""
    bodies = _arm_bodies(dispatchgen.generate_source())
    assert set(bodies) == set(NUMBERS)
    for name, number in NUMBERS.items():
        marks = re.findall(r"# via optemplates: (\w+)\.", bodies[name])
        assert marks == _kinds(number), name
    assert {kind for number in NUMBERS.values() for kind in _kinds(number)} == set(
        optemplates.TEMPLATES
    )


@pytest.mark.parametrize("bench", ["javac", "jess"])
def test_every_jit_control_site_is_emitted_by_optemplates(marked_templates, bench):
    """Each compiled body of a benchsuite run, recompiled: every call,
    return, jump and branch its analysis reaches carries exactly one
    marker of its kind, at its pc."""
    program = program_for(bench, "tiny")
    vm = Interpreter(program, jikes_config(jit=True))
    vm.run()
    bodies = {method.index: method for method, _code in vm.jit_bodies}
    assert bodies
    seen = set()
    for method in bodies.values():
        compiler = jit_compiler._Compiler(
            method, program, vm.code_cache, vm.config, True, False
        )
        compiler.compile()
        marks = re.findall(r"# via optemplates: (\w+)\. @(\d+)", "\n".join(compiler.lines))
        control = sorted(
            (kind, int(pc)) for kind, pc in marks if kind in optemplates.CONTROL_KINDS
        )
        expected = sorted(
            (kind, pc)
            for pc in compiler.depth
            for kind in [optemplates.spec_and_kind(compiler.recs[pc][0])[1]]
            if kind in optemplates.CONTROL_KINDS
        )
        assert control == expected, method.function.qualified_name
        seen.update(kind for kind, _pc in control)
    assert {"jump", "branch", "return", "ic_call_virtual"} <= seen


#: What an arm may hold that no template wrote: a fused head's step
#: count and operand unpack, and a data arm's write-back and ``pc`` step.
_ARM_FRAME = re.compile(
    r"steps \+= \d+|\w+(?:, \w+)+ = fbarg\[pc\]|pc \+= \d+"
    r"|stack\[-1\] [-+*]?= .+|stack\.append\(.+\)"
)


def test_the_generator_writes_no_arm_body_itself(monkeypatch):
    """Tag every line written while a template runs — the context's own
    leaves included — and the rest of each arm is only its frame."""
    depth = [0]
    for kind, (template, leaf) in list(optemplates.TEMPLATES.items()):

        def tagged(ctx, spec, a, b, vstack, _template=template):
            depth[0] += 1
            try:
                _template(ctx, spec, a, b, vstack)
            finally:
                depth[0] -= 1

        monkeypatch.setitem(optemplates.TEMPLATES, kind, (tagged, leaf))
    write = dispatchgen.Emitter.__call__
    monkeypatch.setattr(
        dispatchgen.Emitter,
        "__call__",
        lambda em, line="": write(em, f"{line}  # T" if line and depth[0] else line),
    )
    bodies = _arm_bodies(dispatchgen.generate_source())
    for name, body in bodies.items():
        for line in body.split("\n"):
            text = line.strip()
            if text and not text.endswith("# T"):
                assert _ARM_FRAME.fullmatch(text), (name, text)


def test_generation_is_byte_identical_once_the_templates_are_restored():
    """Runs after the marked fixture has been torn down (file order)."""
    assert dispatchgen.generate_source() == dispatchgen.TARGET.read_text()


# -- the fault leaves, on the real loop ----------------------------------------

#: The poked instruction sits one call deep, after a print, so a fault
#: that forgot to sync would show stale ``steps``/``time``/``call_count``.
POKED = """
func poke/0 locals=0 void
  PUSH 7
  PRINT
  NOP
  PUSH 8
  PRINT
  RETURN
end
func main/0 locals=0 void
  CALL_STATIC poke 0
  RETURN
end
"""
POKE_PC = 2


@pytest.mark.parametrize("use_ic", [False, True], ids=["raw-calls", "ic"])
def test_unknown_opcode_faults_with_counters_synced(use_ic):
    program = assemble(POKED)
    poke = next(f for f in program.functions if f.name == "poke")
    for number in UNASSIGNED:
        vm = Interpreter(program, jikes_config(fuse=True, ic=use_ic))
        method = vm.code_cache.current(poke.index)
        assert method.fops[POKE_PC] == NUMBERS["NOP"], "test premise: NOP stays unfused"
        method.fops[POKE_PC] = number

        with pytest.raises(VMError) as excinfo:
            vm.run()

        fused = number >= fuse.FUSE_BASE
        kind = "superinstruction" if fused else "opcode"
        assert type(excinfo.value) is VMError
        assert str(excinfo.value) == f"unknown {kind} {number} in poke @pc={POKE_PC}"
        assert (excinfo.value.function, excinfo.value.pc) == ("poke", POKE_PC)
        assert vm.frames[-1].pc == POKE_PC
        assert vm.output == [7]
        assert vm.call_count == 1
        # The head has charged the faulting dispatch like any other
        # fault's; a raw dispatch counts its step in the head, a fused
        # one in the arm.
        call_cost = vm.config.cost_model.call_static_cost
        assert vm.time == call_cost + sum(method.fcosts[: POKE_PC + 1]), number
        assert vm.steps == (1 + POKE_PC) + (0 if fused else 1), number
