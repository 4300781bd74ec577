"""Differential fuzzing for the VM configuration matrix.

The paper's central claim — counter-based sampling is *non-perturbing*
— was hardened by PRs 3–4 into hard identity invariants: fused, IC, and
telemetry-instrumented runs must be bit-identical to a bare run in
output, virtual time, steps, ticks, DCG weights, and telemetry event
streams.  This package machine-checks those invariants over randomly
generated programs instead of a handful of hand-picked benchmarks:

* :mod:`repro.fuzz.genprog` — seeded well-typed Mini program generator
  (dispatch webs, bounded recursion, tight loops, accessor leaves).
* :mod:`repro.fuzz.genasm` — hand-assembled-bytecode generator for
  shapes the frontend cannot emit (interior jump targets inside fusable
  windows, megamorphic sites, missing-selector traps, guest faults).
* :mod:`repro.fuzz.differential` — runs one program across the
  ``fuse × ic × profiler × telemetry`` matrix and checks the invariants.
* :mod:`repro.fuzz.shrink` — deterministic delta-debugging minimizer
  for violating program/config pairs.
* :mod:`repro.fuzz.triage` — buckets violations by invariant + opcode
  signature so one root cause produces one report.
* :mod:`repro.fuzz.campaign` — the ``repro-mini fuzz`` engine: seed
  fan-out over :func:`repro.harness.parallel.pmap`, triage, shrinking,
  and regression-corpus replay.

Shrunk reproducers for every violation found live under
``tests/fuzz/corpus/`` and are replayed by CI on every push.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "FuzzSpec": ".campaign",
        "fuzz_one": ".campaign",
        "replay_corpus": ".campaign",
        "run_campaign": ".campaign",
        "MatrixCell": ".differential",
        "RunRecord": ".differential",
        "Violation": ".differential",
        "check_program": ".differential",
        "generate_asm": ".genasm",
        "generate_mini": ".genprog",
        "shrink_lines": ".shrink",
        "opcode_signature": ".triage",
        "triage_key": ".triage",
    },
)
