"""The trie matcher forms exactly the groups the candidate-list matcher did.

:func:`repro.vm.fuse.fuse_method` walks one trie of the measured windows
in a single pass, bounded by jump targets only.  The reference below is
the matcher it replaced, kept as an oracle: placement runs first, then
at each pc the head opcode's candidate windows tried longest first, each
compared as a tuple slice, operands packed through ``getattr`` on the
``Instr``.  Both must give the same arrays on every method of the
benchsuite, on generated programs and on seeded random op streams that
put zero divisors and jump targets inside windows.
"""

from __future__ import annotations

import random

import pytest

from repro.benchsuite.generator import GeneratorConfig, generate_source
from repro.benchsuite.suite import BENCHMARKS, program_for
from repro.bytecode.instr import Instr
from repro.bytecode.opcodes import JUMP_OPS, Op
from repro.frontend.codegen import compile_source
from repro.vm import fuse
from repro.vm.costmodel import jikes_cost_model

_COSTS = jikes_cost_model().cost_array()


def _reference_index(windows):
    by_head: dict[int, list] = {}
    for i, seq in enumerate(windows):
        seq = tuple(int(op) for op in seq)
        by_head.setdefault(seq[0], []).append(
            (seq, fuse.FUSE_BASE + i, fuse.divisor_pushes(seq))
        )
    for cands in by_head.values():
        cands.sort(key=lambda cand: -len(cand[0]))
    return by_head


def _reference_groups(by_head, code, ops, start, end):
    pc = start
    while pc < end:
        for seq, fid, divisors in by_head.get(ops[pc], ()):
            stop = pc + len(seq)
            if (
                stop <= end
                and tuple(ops[pc:stop]) == seq
                and all(code[pc + i].a != 0 for i in divisors)
            ):
                yield pc, fid, stop
                pc = stop
                break
        else:
            pc += 1


_REFERENCE = _reference_index(fuse.FUSED_COMPONENTS.values())


def _reference_fuse(code, ops, costs):
    fops, fcosts = list(ops), list(costs)
    fa: list = [None] * len(ops)
    fb: list = [None] * len(ops)
    sites = span = 0
    for start, end in fuse.runs(code):
        for pc, fid, stop in _reference_groups(_REFERENCE, code, ops, start, end):
            fops[pc] = fid
            fcosts[pc] = sum(costs[pc:stop])
            packed = [
                getattr(code[pc + i], field) for field, i in fuse.FUSED_OPERANDS[fid]
            ]
            fa[pc] = packed[0] if packed else None
            rest = packed[1:]
            fb[pc] = rest[0] if len(rest) == 1 else tuple(rest) or None
            sites += 1
            span += stop - pc
    if sites == 0:
        return None
    return fops, fcosts, fa, fb, sites, span


def _assert_same(code) -> int:
    """Both fusers agree on ``code``; the sites they formed."""
    ops = [int(instr.op) for instr in code]
    costs = [_COSTS[op] for op in ops]
    got = fuse.fuse_method(ops, [i.a for i in code], [i.b for i in code], costs)
    assert got == _reference_fuse(code, ops, costs)
    return 0 if got is None else got[4]


@pytest.mark.parametrize("size", ["tiny", "small", "large"])
def test_benchsuite_methods_fuse_as_the_reference_does(size):
    sites = 0
    for name in BENCHMARKS:
        for function in program_for(name, size).functions:
            sites += _assert_same(function.code)
    assert sites > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_programs_fuse_as_the_reference_does(seed):
    source = generate_source(
        GeneratorConfig(num_classes=6, methods_per_class=5, loop_iterations=50, seed=seed)
    )
    sites = sum(_assert_same(f.code) for f in compile_source(source).functions)
    assert sites > 0


_WINDOWS = list(fuse.FUSED_COMPONENTS.values())
_NOISE = [int(op) for op in Op if int(op) in fuse.PLACEMENT]


def _random_stream(rng: random.Random, length: int) -> list[Instr]:
    """Measured windows laid end to end, cut and mutated, with noise ops
    between them; ``PUSH`` immediates are often 0 and every jump lands
    on a random pc, inside a window as often as not."""
    ops: list[int] = []
    while len(ops) < length:
        if rng.random() < 0.7:
            window = list(rng.choice(_WINDOWS))
            if rng.random() < 0.3:
                del window[rng.randrange(len(window)) :]
            if window and rng.random() < 0.2:
                window[rng.randrange(len(window))] = rng.choice(_NOISE)
            ops.extend(window)
        else:
            ops.append(rng.choice(_NOISE))
    code = []
    for op in ops:
        if op in JUMP_OPS:
            a = rng.randrange(len(ops) + 1)
        elif op == Op.PUSH:
            a = rng.choice((0, 0, 1, 7))
        else:
            a = rng.randrange(4)
        code.append(Instr(Op(op), a, rng.randrange(4)))
    return code


@pytest.mark.parametrize("seed", range(8))
def test_random_op_streams_fuse_as_the_reference_does(seed):
    rng = random.Random(seed)
    sites = sum(_assert_same(_random_stream(rng, rng.randrange(1, 120))) for _ in range(150))
    assert sites > 0


def test_index_refuses_a_window_no_run_can_hold():
    for window in [
        (Op.LOAD,),
        (Op.LOAD, Op.CALL_STATIC),
        (Op.JUMP_IF_FALSE, Op.LOAD),
        (Op.LOAD, Op.JUMP, Op.LOAD),
    ]:
        with pytest.raises(ValueError):
            fuse.index([window])


def test_match_keeps_the_longest_window_whose_divisors_are_nonzero():
    pair = (Op.LOAD, Op.PUSH)
    quad = (Op.LOAD, Op.PUSH, Op.MOD, Op.STORE)
    trie = fuse.index([pair, quad])
    ops = [int(op) for op in quad]
    assert fuse.match(trie, ops, [0, 5, None, 1], 0, 4) == (fuse.FUSE_BASE + 1, 4)
    # A zero divisor keeps the quad raw; the pair still matches.
    assert fuse.match(trie, ops, [0, 0, None, 1], 0, 4) == (fuse.FUSE_BASE, 2)
    # ``end`` bounds the walk (a jump target at pc 3).
    assert fuse.match(trie, ops, [0, 5, None, 1], 0, 3) == (fuse.FUSE_BASE, 2)
    assert fuse.match(trie, ops, [0, 5, None, 1], 2, 4) is None
