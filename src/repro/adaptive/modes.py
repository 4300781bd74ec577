"""Execution modes.

``jit_only_cache`` builds the deterministic "JIT-only" configuration the
paper uses for its accuracy experiments (§6.2): every method compiled at
the same low optimization level on first execution, so calling behavior
is identical run to run.  Level 0 inlines only trivial methods (bodies
no bigger than a calling sequence), matching the paper's baseline where
"all other calls remain and thus have the potential to be profiled".
"""

from __future__ import annotations

from repro.bytecode.program import Program
from repro.opt.pipeline import optimize_function
from repro.vm.costmodel import CostModel
from repro.vm.runtime import CodeCache
from repro.inlining.static_heur import StaticSizePolicy, TrivialOnlyPolicy


def jit_only_cache(
    program: Program,
    cost_model: CostModel,
    level: int = 0,
    fuse: bool = True,
    ic: bool = True,
    paths: bool = False,
) -> CodeCache:
    """A code cache with every method precompiled at ``level``.

    * level 0 — trivial inlining only,
    * level 1 — static size-threshold inlining,
    * any other value — raw baseline code, no inlining at all.

    ``fuse`` and ``ic`` control superinstruction fusion and inline
    caches (host-level dispatch only; never affect calling behavior or
    profiles).  ``paths`` compiles path-instrumentable code (see
    :mod:`repro.profiling.paths`).
    """
    cache = CodeCache(program, cost_model, fuse=fuse, ic=ic, paths=paths)
    if level == 0:
        policy = TrivialOnlyPolicy(program)
    elif level == 1:
        policy = StaticSizePolicy(program)
    else:
        return cache
    for function in program.functions:
        plan = policy.plan_for(function.index)
        if plan.is_empty():
            continue
        result = optimize_function(program, plan)
        cache.install(result.function, level)
    return cache
