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
from repro.bytecode.opcodes import Op, jump_targets
from repro.frontend.codegen import compile_source
from repro.vm.costmodel import jikes_cost_model
from repro.vm.fuse import (
    FUSE_BASE,
    FUSED_ARITY,
    FUSED_NAMES,
    F_LOAD_PUSH_ADD_STORE,
    F_LOAD_PUSH_LT_JIF,
    F_PUSH_MOD,
    F_PUSH_STORE,
    _PATTERNS,
    fuse_method,
)
from repro.vm.runtime import CompiledMethod


def _fuse(code, costs=None):
    ops = [int(instr.op) for instr in code]
    if costs is None:
        costs = [1] * len(code)
    return fuse_method(code, ops, costs)


def test_quad_match_with_operands_and_summed_cost():
    code = [
        Instr(Op.LOAD, 2),
        Instr(Op.PUSH, 5),
        Instr(Op.ADD),
        Instr(Op.STORE, 3),
    ]
    fops, fcosts, fa, fb, sites, span = _fuse(code, costs=[1, 1, 1, 1])
    assert fops[0] == F_LOAD_PUSH_ADD_STORE
    assert fcosts[0] == 4
    assert (fa[0], fb[0]) == (2, (5, 3))
    assert sites == 1 and span == 4
    # Interior slots keep the raw stream so a de-quickened re-execution
    # can resume mid-group.
    assert fops[1:] == [int(Op.PUSH), int(Op.ADD), int(Op.STORE)]
    assert fcosts[1:] == [1, 1, 1]


def test_greedy_prefers_longest_pattern():
    # LOAD; PUSH; LT; JUMP_IF_FALSE could match LOAD_PUSH (pair) but the
    # quad must win.
    code = [
        Instr(Op.LOAD, 0),
        Instr(Op.PUSH, 10),
        Instr(Op.LT),
        Instr(Op.JUMP_IF_FALSE, 9),
    ]
    fops, _, fa, fb, sites, span = _fuse(code)
    assert fops[0] == F_LOAD_PUSH_LT_JIF
    assert (fa[0], fb[0]) == (0, (10, 9))
    assert (sites, span) == (1, 4)


def test_jump_target_interior_blocks_fusion():
    # The same window, but pc 1 is a jump target: fusing across it would
    # skip the group head when the jump lands mid-group.
    code = [
        Instr(Op.PUSH, 1),
        Instr(Op.STORE, 0),
        Instr(Op.JUMP, 1),
    ]
    assert 1 in jump_targets(code)
    result = _fuse(code)
    assert result is None  # PUSH;STORE straddles the target; JUMP is unfusable


def test_jump_target_at_head_is_fusable():
    # A branch landing *on* the group head is fine — the whole group
    # executes from its start.
    code = [
        Instr(Op.PUSH, 1),
        Instr(Op.STORE, 0),
        Instr(Op.JUMP, 0),
    ]
    fops, _, _, _, sites, _ = _fuse(code)
    assert fops[0] == F_PUSH_STORE
    assert sites == 1


def test_push_zero_mod_guard():
    fused = _fuse([Instr(Op.PUSH, 3), Instr(Op.MOD)])
    assert fused is not None and fused[0][0] == F_PUSH_MOD
    # PUSH 0; MOD must stay raw so the fused handler can assume a
    # nonzero divisor (DivisionByZeroError comes from the raw path).
    assert _fuse([Instr(Op.PUSH, 0), Instr(Op.MOD)]) is None


def test_no_match_returns_none():
    assert _fuse([Instr(Op.PUSH, 1), Instr(Op.PRINT), Instr(Op.RETURN)]) is None


def test_pattern_table_consistency():
    seen = set()
    for fid, seq, build, _guard in _PATTERNS:
        assert fid >= FUSE_BASE
        assert fid not in seen
        seen.add(fid)
        assert FUSED_ARITY[fid] == len(seq)
        assert FUSED_NAMES[fid] == "_".join(op.name for op in seq)
        # Every component opcode is a raw opcode, below the fused range.
        assert all(int(op) < FUSE_BASE for op in seq)


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
