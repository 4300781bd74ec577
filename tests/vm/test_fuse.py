"""Unit tests for the superinstruction fusion pass itself.

The differential suite (test_fusion_identity) proves fused execution is
observably identical; these tests pin down the *pass*: which windows
match, which are excluded, and the structural invariants the fused
arrays must satisfy for the interpreter's quickened dispatch to be
sound.
"""

from __future__ import annotations

import pytest

from repro.benchsuite.suite import BENCHMARKS, program_for
from repro.bytecode.instr import Instr
from repro.bytecode.opcodes import JUMP_OPS, Op, jump_targets, spec_of
from repro.frontend.codegen import compile_source
from repro.vm import fuse
from repro.vm.costmodel import jikes_cost_model
from repro.vm.fuse import FUSE_BASE, FUSED_ARITY, FUSED_COMPONENTS, FUSED_NAMES, fuse_method
from repro.vm.runtime import CompiledMethod
from tests.helpers import fused_id


def _fuse(code, costs=None):
    ops = [int(instr.op) for instr in code]
    if costs is None:
        costs = [1] * len(code)
    return fuse_method(ops, [i.a for i in code], [i.b for i in code], costs)


def test_quad_match_with_operands_and_summed_cost():
    code = [
        Instr(Op.LOAD, 2),
        Instr(Op.PUSH, 5),
        Instr(Op.ADD),
        Instr(Op.STORE, 3),
    ]
    fops, fcosts, fa, fb, sites, span = _fuse(code, costs=[1, 1, 1, 1])
    assert fops[0] == fused_id("LOAD", "PUSH", "ADD", "STORE")
    assert fcosts[0] == 4
    assert (fa[0], fb[0]) == (2, (5, 3))
    assert sites == 1 and span == 4
    # Interior slots keep the raw stream so a de-quickened re-execution
    # can resume mid-group.
    assert fops[1:] == [int(Op.PUSH), int(Op.ADD), int(Op.STORE)]
    assert fcosts[1:] == [1, 1, 1]


def _groups(windows, code):
    trie = fuse.index([tuple(Op[name] for name in w) for w in windows])
    ops = [int(instr.op) for instr in code]
    a = [instr.a for instr in code]
    return [
        (pc, fid - FUSE_BASE, stop)
        for start, end in fuse.runs(code)
        for pc, fid, stop in fuse.groups(trie, ops, a, start, end)
    ]


def test_greedy_prefers_longest_pattern():
    # LOAD; PUSH; LT; JUMP_IF_FALSE could match the pair, but the quad
    # wins whatever order the table lists them in.
    code = [Instr(Op.LOAD, 0), Instr(Op.PUSH, 10), Instr(Op.LT), Instr(Op.JUMP_IF_FALSE, 9)]
    pair, quad = ("LOAD", "PUSH"), ("LOAD", "PUSH", "LT", "JUMP_IF_FALSE")
    assert _groups([pair, quad], code) == [(0, 1, 4)]
    assert _groups([quad, pair], code) == [(0, 0, 4)]


def test_placement_runs_split_at_targets_calls_and_tails():
    code = [
        Instr(Op.PUSH, 1),  # 0
        Instr(Op.STORE, 0),  # 1
        Instr(Op.LOAD, 0),  # 2  jump target: a run starts here
        Instr(Op.JUMP_IF_FALSE, 2),  # 3  a last-only op ends its run
        Instr(Op.LOAD, 0),  # 4
        Instr(Op.CALL_STATIC, 0, 1),  # 5  in no run
        Instr(Op.NEW_ARRAY),  # 6  run-time charged: in no run
        Instr(Op.RETURN),  # 7  in no run
    ]
    assert list(fuse.runs(code)) == [(0, 2), (2, 4), (4, 5)]
    # A window may end at the branch, never run past it or into a target.
    assert _groups([("STORE", "LOAD"), ("LOAD", "JUMP_IF_FALSE")], code) == [(2, 1, 4)]


def _plain_window():
    """A measured window with no last-only op and no divisor guard."""
    return next(
        (fid, seq)
        for fid, seq in FUSED_COMPONENTS.items()
        if fuse.PLACEMENT[seq[-1]] == "anywhere" and not fuse.divisor_pushes(seq)
    )


def test_jump_target_interior_blocks_fusion():
    # A branch landing mid-window would skip the group head.
    fid, seq = _plain_window()
    code = [Instr(op, 1) for op in seq] + [Instr(Op.JUMP, 1)]
    assert 1 in jump_targets(code)
    fused = _fuse(code)
    assert fused is None or fused[0][0] != fid


def test_jump_target_at_head_is_fusable():
    # A branch landing *on* the group head is fine — the whole group
    # executes from its start.
    fid, seq = _plain_window()
    fops, _, _, _, sites, _ = _fuse([Instr(op, 1) for op in seq] + [Instr(Op.JUMP, 0)])
    assert fops[0] == fid
    assert sites >= 1


def test_push_zero_mod_guard():
    """A ``PUSH`` feeding a divide must be nonzero for its window to fuse
    (the raw handler is the one that faults), in every window that has
    one."""
    guarded = {fid: seq for fid, seq in FUSED_COMPONENTS.items() if fuse.divisor_pushes(seq)}
    assert guarded
    for fid, seq in guarded.items():
        # A branch tail jumps past the window, never into it.
        code = [Instr(op, len(seq) if op in JUMP_OPS else 3) for op in seq]
        assert _fuse(code)[0][0] == fid
        for divisor in fuse.divisor_pushes(seq):
            zeroed = [*code[:divisor], Instr(Op.PUSH, 0), *code[divisor + 1 :]]
            fused = _fuse(zeroed)
            assert fused is None or fused[0][0] != fid, (FUSED_NAMES[fid], divisor)


def test_no_match_returns_none():
    assert _fuse([Instr(Op.NOP), Instr(Op.PRINT), Instr(Op.RETURN)]) is None


def test_pattern_table_consistency():
    """Ids, names, arity, the packed operands and the fusable opcodes
    all follow from ``WINDOWS``, and every window obeys the placement
    rule and saved something when it was chosen."""
    assert 0 < len(fuse.WINDOWS) <= fuse.MAX_WINDOWS
    for i, (names, saving) in enumerate(fuse.WINDOWS.items()):
        fid = FUSE_BASE + i
        seq = tuple(Op[name] for name in names)
        assert FUSED_COMPONENTS[fid] == seq
        assert 2 <= FUSED_ARITY[fid] == len(seq) <= fuse.MAX_WIDTH
        assert FUSED_NAMES[fid] == "_".join(names)
        assert saving >= fuse.MIN_SAVING_PPM
        places = [fuse.PLACEMENT[op] for op in seq]
        assert None not in places and "last" not in places[:-1], names
        assert fuse.FUSED_OPERANDS[fid] == tuple(
            (field, i)
            for i, op in enumerate(seq)
            for field, size in (("a", 2), ("b", 4))
            if spec_of(op).size >= size
        )
    used = {op for seq in FUSED_COMPONENTS.values() for op in seq}
    assert used == fuse.FUSABLE_OPS


def _structurally_sound(method: CompiledMethod, code) -> None:
    targets = jump_targets(code)
    n = len(method.ops)
    assert len(method.fops) == len(method.fcosts) == n
    sites = span = 0
    pc = 0
    while pc < n:
        op = method.fops[pc]
        if op >= FUSE_BASE:
            arity = FUSED_ARITY[op]
            sites += 1
            span += arity
            # Summed cost, interiors untouched, no interior jump target.
            assert method.fcosts[pc] == sum(method.costs[pc : pc + arity])
            for interior in range(pc + 1, pc + arity):
                assert interior not in targets
                assert method.fops[interior] == method.ops[interior]
                assert method.fcosts[interior] == method.costs[interior]
            pc += arity
        else:
            assert op == method.ops[pc]
            assert method.fcosts[pc] == method.costs[pc]
            pc += 1
    assert sites == method.fused_sites
    assert span == method.fused_span


@pytest.mark.parametrize("name", list(BENCHMARKS)[:6])
def test_benchsuite_methods_structurally_sound(name):
    program = program_for(name, "tiny")
    cost_model = jikes_cost_model()
    for function in program.functions:
        # ic=False: this test checks the *fusion* structure of the quickened
        # stream (with ICs ``fops`` is a copy the call sites quicken in).
        _structurally_sound(
            CompiledMethod(function, cost_model, opt_level=0, ic=False), function.code
        )


def test_fuse_disabled_aliases_raw_arrays():
    program = compile_source("def main() { print(1 + 2); }")
    cost_model = jikes_cost_model()
    method = CompiledMethod(
        program.functions[0], cost_model, opt_level=0, fuse=False, ic=False
    )
    assert method.fops is method.ops
    assert method.fcosts is method.costs
    assert method.fused_sites == 0


def test_origins_hoisted_from_code():
    source = (
        "def f(): int { return 7; }\n"
        "def main() { print(f()); }"
    )
    program = compile_source(source)
    cost_model = jikes_cost_model()
    for function in program.functions:
        method = CompiledMethod(function, cost_model, opt_level=0)
        assert method.origins == [instr.origin for instr in function.code]
