"""The generators keep their two promises: every seed builds a valid
program, and the same seed always yields the same text (determinism is
what makes seeds reportable and campaigns resumable)."""

from __future__ import annotations

import pytest

from repro.bytecode.assembler import assemble
from repro.frontend.codegen import compile_source
from repro.fuzz.genasm import generate_asm
from repro.fuzz.genprog import generate_mini

SEEDS = range(0, 40)


@pytest.mark.parametrize("seed", SEEDS)
def test_mini_seed_compiles(seed):
    program = compile_source(generate_mini(seed), filename="<fuzz>")
    assert program.functions


@pytest.mark.parametrize("seed", SEEDS)
def test_asm_seed_assembles(seed):
    program = assemble(generate_asm(seed))
    assert program.functions


def test_generators_are_deterministic():
    for seed in SEEDS:
        assert generate_mini(seed) == generate_mini(seed)
        assert generate_asm(seed) == generate_asm(seed)


def test_distinct_seeds_vary():
    """Not a strict requirement seed-by-seed, but a generator collapsing
    to one program would make the campaign vacuous."""
    minis = {generate_mini(seed) for seed in SEEDS}
    asms = {generate_asm(seed) for seed in SEEDS}
    assert len(minis) > len(SEEDS) // 2
    assert len(asms) > len(SEEDS) // 2


def test_asm_seeds_cover_fault_shapes():
    """Over a modest seed range the assembler generator should emit
    every fault family at least once — the differential matrix is only
    as strong as the transcripts it is fed."""
    sources = "\n".join(generate_asm(seed) for seed in range(120))
    for marker in ("MOD", "DIV", "GETFIELD", "ALOAD", "CALL_VIRTUAL", "CALL_STATIC"):
        assert marker in sources
    # setter_leaf_fault, through both the static and the virtual IC arm.
    assert "CALL_VIRTUAL bump 2" in sources and "CALL_STATIC bumpS" in sources
