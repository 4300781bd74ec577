"""The independent oracle: expected transcripts from the spec executor.

``expected.json`` holds, per (program, size), the output, virtual time,
steps and ticks that ``repro.fuzz.specexec.run_spec_reference`` — a
second implementation driven by the opcode spec table, sharing no
dispatch code with the interpreter, its code cache or the JIT —
produces.  It runs at ~0.5M steps/s, too slow to repeat in every
set-up for million-step programs, so the file is committed; the small
seed-generated ``compile_wide`` programs are checked against a live
oracle run instead.

Regenerate (about a minute) with::

    python3 benchmarks/perf/oracle.py

The file also pins ``profiling.cbs.accuracy_pct`` per program.  That
number comes from the VM under test, so it is not an oracle value; it
is pinned because it is deterministic and must only move on purpose.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
TRANSCRIPT_FIELDS = ("output", "time", "steps", "ticks")

#: Benchsuite programs any workload uses (see README.md for why each).
SUITE_PROGRAMS = (
    "compress", "mpegaudio", "xerces", "db",
    "jess", "javac", "mtrt", "daikon", "kawa", "jbb",
)
VIRTCALLS = "virtcalls16"
_VIRTCALLS_ITERATIONS = {"tiny": 4000, "small": 12000}


def virtcalls_source(num_classes: int, iterations: int) -> str:
    """Sixteen receivers cycling through ``num_classes`` classes at one
    call site: with 16 classes every inline cache goes megamorphic and
    every JIT-baked receiver guard misses."""
    lines = ["class V0 { def f(x: int): int { return x + 1; } }"]
    for k in range(1, num_classes):
        lines.append(
            f"class V{k} extends V0 {{ def f(x: int): int {{ return x + {k + 1}; }} }}"
        )
    lines.append("def main() {")
    lines.append("  var objs = new V0[16];")
    for i in range(16):
        lines.append(f"  objs[{i}] = new V{i % num_classes}();")
    lines.append("  var t = 0;")
    lines.append(
        f"  for (var i = 0; i < {iterations}; i = i + 1) "
        "{ t = (t + objs[i % 16].f(t)) % 65521; }"
    )
    lines.append("  print(t);")
    lines.append("}")
    return "\n".join(lines)


def source_for(name: str, size: str) -> str:
    if name == VIRTCALLS:
        return virtcalls_source(16, _VIRTCALLS_ITERATIONS[size])
    from repro.benchsuite.suite import get_benchmark

    return get_benchmark(name).source(size)


def reference(program) -> dict:
    """The spec executor's transcript of ``program`` (unprofiled jikes)."""
    from repro.fuzz.specexec import run_spec_reference
    from repro.vm.config import jikes_config

    transcript = run_spec_reference(program, jikes_config())
    if transcript["error"] is not None:
        raise RuntimeError(f"oracle run faulted: {transcript['error']}")
    return {field: transcript[field] for field in TRANSCRIPT_FIELDS}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def main() -> int:
    sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
    from repro.frontend.codegen import compile_source
    from repro.profiling.metrics import accuracy

    import vmwork

    programs, pinned = {}, {}
    for size in ("tiny", "small"):
        for name in SUITE_PROGRAMS + (VIRTCALLS,):
            program = compile_source(source_for(name, size))
            key = f"{name}/{size}"
            programs[key] = reference(program)
            profiled = vmwork.collect(program)
            pinned[key] = {
                "cbs_accuracy_pct": accuracy(profiled.cbs.dcg, profiled.perfect.dcg)
            }
            print(key, programs[key]["steps"], "steps", file=sys.stderr)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"programs": programs, "pinned": pinned}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
