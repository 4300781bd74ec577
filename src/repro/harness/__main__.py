"""Command-line entry point for regenerating the paper's experiments.

Usage::

    python -m repro.harness table1 [--quick] [--vm jikes|j9] [--jobs N]
    python -m repro.harness table2a [--quick]
    python -m repro.harness table2b [--quick]
    python -m repro.harness table3 [--vm jikes|j9] [--quick]
    python -m repro.harness figure1 [--quick]
    python -m repro.harness figure5-jikes [--quick]
    python -m repro.harness figure5-j9 [--quick]
    python -m repro.harness fleet [--quick]
    python -m repro.harness all [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness import figure1, figure5, fleet, table1, table2, table3
from repro.harness.convergence import (
    compare_convergence,
    phase_change_study,
    render_curves,
)


def _convergence(quick, vm, jobs):
    name = "jess" if quick else "javac"
    curves = compare_convergence(name, size="tiny" if quick else "small", vm_name=vm)
    return f"Convergence on {name} ({vm}):\n" + render_curves(curves)


def _phase(quick, vm, jobs):
    results = phase_change_study("jbb", size="tiny" if quick else "small", vm_name=vm)
    lines = ["Phase-change tracking on jbb (late-phase accuracy vs whole-run):"]
    for r in results:
        lines.append(
            f"  {r.label:20s} overall={r.overall_accuracy:5.1f}%  "
            f"late-phase={r.late_phase_accuracy:5.1f}%"
        )
    return "\n".join(lines)

#: Every experiment takes (quick, vm, jobs); those whose work is not a
#: flat cell sweep (figures, fleet, convergence) ignore ``jobs``.
_EXPERIMENTS = {
    "table1": lambda quick, vm, jobs: table1.main(quick, vm, jobs=jobs),
    "table2a": lambda quick, vm, jobs: table2.main(quick, "jikes", jobs=jobs),
    "table2b": lambda quick, vm, jobs: table2.main(quick, "j9", jobs=jobs),
    "table3": lambda quick, vm, jobs: table3.main(quick, vm, jobs=jobs),
    "table3-j9": lambda quick, vm, jobs: table3.main(quick, "j9", jobs=jobs),
    "figure1": lambda quick, vm, jobs: figure1.main(quick, vm),
    "figure5-jikes": lambda quick, vm, jobs: figure5.main(quick, "jikes", jobs=jobs),
    "figure5-j9": lambda quick, vm, jobs: figure5.main(quick, "j9", jobs=jobs),
    "fleet": lambda quick, vm, jobs: fleet.main(quick, vm),
    "convergence": _convergence,
    "phase-change": _phase,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced benchmark set / sizes, for smoke-testing",
    )
    parser.add_argument(
        "--vm",
        choices=["jikes", "j9"],
        default="jikes",
        help="VM configuration (for experiments that take one)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cell sweeps (tables); results are "
        "identical for any value",
    )
    args = parser.parse_args(argv)

    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.time()
        print(_EXPERIMENTS[name](args.quick, args.vm, args.jobs))
        print(f"[{name} completed in {time.time() - started:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
