"""Front-end cost gate: ``compile_source`` stays linear in program size.

A *ratio* of two timings taken in the same process, interleaved, so the
runner's speed cancels (ROADMAP item 1: never compare seconds across
machines).  Twice the classes is twice the tokens; anything super-linear
in the lexer, parser, type checker, code generator or verifier pushes
the ratio above 2.  Tier-1 runs it: ``slow`` is not deselected there.
"""

import gc
import time

import pytest

from repro.benchsuite.generator import GeneratorConfig, generate_source
from repro.frontend.codegen import compile_source
from repro.lang.lexer import tokenize

#: Allowed cost of the double-size program relative to the base one.
MAX_RATIO = 2.4
ROUNDS = 7
ATTEMPTS = 3


def _timed(source: str) -> float:
    gc.collect()
    start = time.perf_counter()
    compile_source(source)
    return time.perf_counter() - start


@pytest.mark.slow
def test_compile_source_cost_doubles_when_the_program_doubles():
    base = generate_source(GeneratorConfig(24, 12, loop_iterations=50, seed=7))
    double = generate_source(GeneratorConfig(48, 12, loop_iterations=50, seed=7))
    tokens = len(tokenize(double)) / len(tokenize(base))
    assert 1.9 < tokens < 2.1

    ratios = []
    for _ in range(ATTEMPTS):  # a loaded machine can spoil one attempt
        best_base = best_double = float("inf")
        for _ in range(ROUNDS):
            best_base = min(best_base, _timed(base))
            best_double = min(best_double, _timed(double))
        ratios.append(best_double / best_base)
        if ratios[-1] <= MAX_RATIO:
            return
    pytest.fail(f"compile_source cost ratio for 2x the program: {ratios} > {MAX_RATIO}")
