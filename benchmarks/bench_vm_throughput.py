"""Raw substrate throughput — how fast the simulator itself runs.

Not a paper experiment; tracks the interpreter's Python-level speed so
regressions in the hot loop are caught.  Run as a script, it emits a
machine-readable summary for the committed ``BENCH_vm.json`` perf
trajectory::

      PYTHONPATH=src python benchmarks/bench_vm_throughput.py            # print
      PYTHONPATH=src python benchmarks/bench_vm_throughput.py --write BENCH_vm.json
      PYTHONPATH=src python benchmarks/bench_vm_throughput.py --check BENCH_vm.json --quick

``--check`` gates on the fused/unfused *speedup ratio*, not absolute
steps/sec: the ratio cancels host-machine speed, so the same baseline
file gates CI runners and developer laptops alike.  Absolute numbers
are recorded for the trajectory but never compared across machines.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.benchsuite.suite import program_for
from repro.frontend.codegen import compile_source
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter

ARITH = """
def main() {
  var t = 0;
  for (var i = 0; i < 20000; i = i + 1) { t = (t * 3 + i) % 65521; }
  print(t);
}
"""

CALLS = """
def f(x: int): int { return x + 1; }
def main() {
  var t = 0;
  for (var i = 0; i < 8000; i = i + 1) { t = f(t); }
  print(t);
}
"""


def virtcalls_source(num_classes: int, iterations: int = 12000) -> str:
    """A virtual-dispatch kernel with a ``num_classes``-way receiver mix.

    Sixteen receivers cycle through the class mix, so a 2-class mix
    exercises the polymorphic IC arms, a 4-class mix the overflow list,
    and a 16-class mix the megamorphic flat-table fallback.
    """
    lines = ["class V0 { def f(x: int): int { return x + 1; } }"]
    for k in range(1, num_classes):
        lines.append(
            f"class V{k} extends V0 "
            f"{{ def f(x: int): int {{ return x + {k + 1}; }} }}"
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


# -- script mode: machine-readable summary / baseline gate ----------------------------

#: The committed trajectory covers the two kernels, the virtual-call
#: mixes, plus one real benchsuite program (virtual dispatch +
#: allocation + fields).
def _workloads(quick: bool):
    size = "tiny" if quick else "small"
    iterations = 4000 if quick else 12000
    return {
        "arith": compile_source(ARITH),
        "calls": compile_source(CALLS),
        "virtcalls2": compile_source(virtcalls_source(2, iterations)),
        "virtcalls4": compile_source(virtcalls_source(4, iterations)),
        "virtcalls16": compile_source(virtcalls_source(16, iterations)),
        f"jess-{size}": program_for("jess", size),
    }


#: Absolute floors on the IC-on/IC-off throughput ratio.  The jess floor
#: says inline caches pay for themselves on virtual-call-heavy code; the
#: calls floor bounds what quickening may cost code whose calls are all
#: static.  arith has none: it makes no call beyond ``main``'s own entry,
#: so IC on and off run the same arms and the ratio measures only host
#: noise (its relative ``ic_speedup`` gate against the baseline stays).
IC_SPEEDUP_FLOORS = {"jess": 1.25, "calls": 0.95}

#: Absolute floors on the JIT-on/JIT-off throughput ratio (both sides
#: fused+IC).  The arith/calls floors are the level-3 acceptance
#: criterion — the template JIT must at least double throughput on both
#: a straight-line kernel and a call-heavy one — over the interpreter
#: that criterion was set against: each is 2.0 over the interpreter's
#: gain since, ``fused_steps_per_sec`` 1.246x on arith and 1.061x on
#: calls when the superinstructions became measured (medians of three
#: alternating full runs, ``jit_steps_per_sec`` 0.97x / 0.98x; the
#: kernels read 3.37-3.50x and 2.71-2.74x, from 4.32-4.43x and
#: 2.87-2.97x).
JIT_SPEEDUP_FLOORS = {"arith": 1.61, "calls": 1.89}

#: ROADMAP item 2's floors for a call site past its two baked guards:
#: overflow (4 classes) and megamorphic (16) receivers stay in generated
#: code.  Full-size kernels only — ``--quick``'s 4 000 iterations end
#: before the one compile they need has paid for itself.  They were
#: 2.5 / 2.0 until the interpreter these ratios divide by got faster
#: (PR 23, dispatch tree): in three alternating full runs
#: ``fused_steps_per_sec`` rose 1.342x on virtcalls4 and 1.332x on
#: virtcalls16 with ``jit_steps_per_sec`` at 1.00x / 1.04x, so each
#: floor is the old one over that ratio (the kernels read 2.50-2.57x
#: and 2.29-2.38x, from 3.41-3.45x and 2.92-3.22x).  The measured
#: superinstruction table moved the interpreter again, 1.190x on
#: virtcalls4 and 1.170x on virtcalls16 (``jit_steps_per_sec`` 1.00x /
#: 1.00x; the kernels read 2.08-2.11x and 1.90-1.92x), and the floors
#: followed: 1.86 / 1.190 and 1.5 / 1.170.
JIT_FULL_RUN_FLOORS = {"virtcalls4": 1.56, "virtcalls16": 1.28}

#: Host-timing configurations measured per repeat, interleaved.
_CONFIGS = (
    ("fused_ic", True, True, False),
    ("fused_noic", True, False, False),
    ("unfused", False, True, False),
    ("jit", True, True, True),
)


def _measure(program, repeats: int) -> tuple[int, dict[str, float]]:
    """(deterministic step count, best-of-N wall seconds per config).

    The configurations run *interleaved* within one process — config
    A, B, C, D, then A, B, C, D again — so host noise (frequency
    drift, cache state, GC) hits all of them alike; sequential
    best-of-N blocks can disagree by ±10% on a busy machine.
    """
    best = {name: float("inf") for name, _, _, _ in _CONFIGS}
    steps = 0
    for _ in range(repeats):
        for name, fuse, ic, jit in _CONFIGS:
            vm = Interpreter(program, jikes_config(fuse=fuse, ic=ic, jit=jit))
            started = time.perf_counter()
            vm.run()
            elapsed = time.perf_counter() - started
            best[name] = min(best[name], elapsed)
            steps = vm.steps
    return steps, best


def collect_summary(quick: bool = False, repeats: int | None = None) -> dict:
    if repeats is None:
        repeats = 3 if quick else 5
    workloads = {}
    for name, program in _workloads(quick).items():
        steps, best = _measure(program, repeats=repeats)
        fused_sps = steps / best["fused_ic"]
        noic_sps = steps / best["fused_noic"]
        plain_sps = steps / best["unfused"]
        jit_sps = steps / best["jit"]
        workloads[name] = {
            "steps": steps,
            "fused_steps_per_sec": round(fused_sps),
            "unfused_steps_per_sec": round(plain_sps),
            "speedup": round(fused_sps / plain_sps, 3),
            "ic_steps_per_sec": round(fused_sps),
            "noic_steps_per_sec": round(noic_sps),
            "ic_speedup": round(fused_sps / noic_sps, 3),
            "jit_steps_per_sec": round(jit_sps),
            "jit_speedup": round(jit_sps / fused_sps, 3),
        }
    return {
        "version": 3,
        "quick": quick,
        "python": sys.version.split()[0],
        "workloads": workloads,
    }


def check_against_baseline(
    summary: dict, baseline: dict, max_regress: float
) -> list[str]:
    """Return a list of failure messages (empty = pass).

    Gates, all on *ratios* (they cancel host-machine speed, so the same
    baseline file gates CI runners and developer laptops alike):

    * each workload's fused/unfused speedup must stay within
      ``max_regress`` of the baseline's speedup;
    * likewise the IC-on/IC-off speedup (skipped for baselines predating
      the IC fields) and the JIT-on/JIT-off speedup (skipped for
      baselines predating the JIT fields, and skipped entirely in
      ``--quick`` mode — tiny workloads end before the JIT has
      amortized its host-side compile cost, so their ratios say
      nothing about a full run);
    * the absolute :data:`IC_SPEEDUP_FLOORS` (jess ≥ 1.25x etc.) and
      :data:`JIT_SPEEDUP_FLOORS` (arith ≥ 1.61x, calls ≥ 1.89x) hold
      regardless of the baseline, and :data:`JIT_FULL_RUN_FLOORS`
      (virtcalls4 ≥ 1.56x, virtcalls16 ≥ 1.28x) on a full run.

    Workload names are matched by kernel prefix so a ``--quick`` check
    (jess-tiny) can run against a full baseline (jess-small).
    """
    failures = []
    base_by_prefix = {
        name.split("-")[0]: entry for name, entry in baseline["workloads"].items()
    }
    for name, entry in summary["workloads"].items():
        prefix = name.split("-")[0]
        base = base_by_prefix.get(prefix)
        if base is not None:
            floor = base["speedup"] * (1.0 - max_regress)
            if entry["speedup"] < floor:
                failures.append(
                    f"{name}: fused speedup {entry['speedup']:.2f}x fell below "
                    f"{floor:.2f}x (baseline {base['speedup']:.2f}x - {max_regress:.0%})"
                )
            if "ic_speedup" in base:
                ic_floor = base["ic_speedup"] * (1.0 - max_regress)
                if entry["ic_speedup"] < ic_floor:
                    failures.append(
                        f"{name}: IC speedup {entry['ic_speedup']:.2f}x fell "
                        f"below {ic_floor:.2f}x (baseline "
                        f"{base['ic_speedup']:.2f}x - {max_regress:.0%})"
                    )
            if "jit_speedup" in base and not summary.get("quick", False):
                jit_floor = base["jit_speedup"] * (1.0 - max_regress)
                if entry["jit_speedup"] < jit_floor:
                    failures.append(
                        f"{name}: JIT speedup {entry['jit_speedup']:.2f}x fell "
                        f"below {jit_floor:.2f}x (baseline "
                        f"{base['jit_speedup']:.2f}x - {max_regress:.0%})"
                    )
        hard_floor = IC_SPEEDUP_FLOORS.get(prefix)
        if hard_floor is not None and entry["ic_speedup"] < hard_floor:
            failures.append(
                f"{name}: IC speedup {entry['ic_speedup']:.2f}x is below the "
                f"hard floor {hard_floor:.2f}x"
            )
        jit_hard_floor = JIT_SPEEDUP_FLOORS.get(prefix)
        if jit_hard_floor is None and not summary.get("quick", False):
            jit_hard_floor = JIT_FULL_RUN_FLOORS.get(prefix)
        if jit_hard_floor is not None and entry["jit_speedup"] < jit_hard_floor:
            failures.append(
                f"{name}: JIT speedup {entry['jit_speedup']:.2f}x is below "
                f"the hard floor {jit_hard_floor:.2f}x"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="VM throughput summary")
    parser.add_argument("--write", metavar="PATH", help="write the summary as JSON")
    parser.add_argument(
        "--check", metavar="PATH", help="gate against a baseline JSON file"
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller workloads / fewer repeats"
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.15,
        help="allowed fractional speedup regression vs baseline (default 0.15)",
    )
    args = parser.parse_args(argv)

    summary = collect_summary(quick=args.quick)
    text = json.dumps(summary, indent=2) + "\n"
    if args.write:
        with open(args.write, "w") as handle:
            handle.write(text)
        print(f"wrote {args.write}", file=sys.stderr)
    else:
        print(text, end="")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_against_baseline(summary, baseline, args.max_regress)
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        if failures:
            return 1
        speedups = ", ".join(
            f"{name} {entry['speedup']:.2f}x/{entry['ic_speedup']:.2f}x"
            f"/{entry['jit_speedup']:.2f}x"
            for name, entry in summary["workloads"].items()
        )
        print(
            f"OK fused/IC/JIT speedups within bounds: {speedups}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
