"""Figure 5 — speedup from profile-directed inlining, timer vs CBS.

Left graph (Jikes RVM): steady-state speedup of profile-guided inlining
(new inliner) with the timer-only profile and with CBS, relative to the
same system using static heuristics only.

Right graph (J9): the same comparison with the J9 inliner, whose
dynamic heuristics *suppress* inlining at cold sites; the compile-time
delta is also reported, since the paper found the dynamic heuristics
reduced compilation time ~9% on average.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adaptive.controller import AdaptiveConfig
from repro.adaptive.modes import jit_only_cache
from repro.benchsuite.suite import program_for
from repro.harness.parallel import pmap
from repro.harness.report import render_bars, render_table
from repro.harness.runner import run_steady_state
from repro.inlining.j9_inliner import J9Inliner
from repro.inlining.new_inliner import NewJikesInliner
from repro.profiling.cbs import CBSProfiler
from repro.profiling.receivers import ReceiverProfile
from repro.profiling.timer_sampler import TimerProfiler
from repro.vm.config import config_named
from repro.vm.interpreter import Interpreter

#: CBS parameters per VM, as in Table 3.
CBS_PARAMS = {"jikes": (3, 16), "j9": (7, 32)}

#: Benchmarks the paper could configure for steady-state iteration.
STEADY_BENCHMARKS = [
    "compress",
    "jess",
    "db",
    "javac",
    "mpegaudio",
    "mtrt",
    "jack",
    "jbb",
    "kawa",
]


@dataclass
class Figure5Row:
    benchmark: str
    timer_speedup: float
    cbs_speedup: float
    compile_time_static: int = 0
    compile_time_cbs: int = 0

    @property
    def compile_time_reduction(self) -> float:
        if self.compile_time_static == 0:
            return 0.0
        return 100.0 * (
            self.compile_time_static - self.compile_time_cbs
        ) / self.compile_time_static


def _policy_for(vm_name: str, program):
    if vm_name == "jikes":
        return NewJikesInliner(program)
    return J9Inliner(program)


def _adaptive_config_for(vm_name: str) -> AdaptiveConfig:
    # J9's dynamic guarding is single-target (paper §5.2); PIC-style
    # chain extension is the Jikes new inliner's trick.
    return AdaptiveConfig(extend_guard_chains=(vm_name == "jikes"))


def compute_figure5(
    vm_name: str = "jikes",
    benchmarks: list[str] | None = None,
    size: str = "small",
    iterations: int = 10,
) -> list[Figure5Row]:
    names = benchmarks if benchmarks is not None else STEADY_BENCHMARKS
    stride, samples = CBS_PARAMS[vm_name]
    rows: list[Figure5Row] = []
    for name in names:
        program = program_for(name, size)
        static = run_steady_state(
            name,
            size,
            vm_name,
            _policy_for(vm_name, program),
            profiler=CBSProfiler(stride=stride, samples_per_tick=samples),
            iterations=iterations,
            use_profile=False,
            adaptive_config=_adaptive_config_for(vm_name),
        )
        timer = run_steady_state(
            name,
            size,
            vm_name,
            _policy_for(vm_name, program),
            profiler=TimerProfiler(),
            iterations=iterations,
            use_profile=True,
            adaptive_config=_adaptive_config_for(vm_name),
        )
        cbs = run_steady_state(
            name,
            size,
            vm_name,
            _policy_for(vm_name, program),
            profiler=CBSProfiler(stride=stride, samples_per_tick=samples),
            iterations=iterations,
            use_profile=True,
            adaptive_config=_adaptive_config_for(vm_name),
        )
        rows.append(
            Figure5Row(
                benchmark=name,
                timer_speedup=100.0 * (static.steady_time - timer.steady_time)
                / timer.steady_time,
                cbs_speedup=100.0 * (static.steady_time - cbs.steady_time)
                / cbs.steady_time,
                compile_time_static=static.compile_time,
                compile_time_cbs=cbs.compile_time,
            )
        )
    return rows


def render_figure5(rows: list[Figure5Row], vm_name: str) -> str:
    side = "left: Jikes RVM, new inliner" if vm_name == "jikes" else "right: J9 inliner"
    table_rows = []
    for r in rows:
        row = [r.benchmark, r.timer_speedup, r.cbs_speedup]
        if vm_name == "j9":
            row.append(r.compile_time_reduction)
        table_rows.append(row)
    avg = [
        "Average",
        sum(r.timer_speedup for r in rows) / len(rows),
        sum(r.cbs_speedup for r in rows) / len(rows),
    ]
    headers = ["Benchmark", "timer-only %", "cbs %"]
    if vm_name == "j9":
        headers.append("compile-time red. %")
        avg.append(sum(r.compile_time_reduction for r in rows) / len(rows))
    table_rows.append(avg)
    table = render_table(
        headers,
        table_rows,
        title=(
            f"Figure 5 ({side}): % speedup of profile-directed inlining over "
            f"static-heuristics-only"
        ),
    )
    bars = render_bars(
        [r.benchmark for r in rows],
        {
            "timer": [r.timer_speedup for r in rows],
            "cbs": [r.cbs_speedup for r in rows],
        },
    )
    return table + "\n\n" + bars


# -- receiver-distribution accuracy (exact IC profile vs sampled CBS) -------------


@dataclass
class ReceiverSiteRow:
    """One hot virtual call site: exact IC counts vs the CBS sample."""

    benchmark: str
    site: str  #: "Caller.qualified_name@pc"
    classes: int  #: distinct receiver classes observed
    calls: int  #: exact call count (from the inline caches)
    overlap: float  #: distribution overlap with the CBS sample, percent


def _receiver_cell(cell: tuple) -> list[ReceiverSiteRow]:
    """Measure one benchmark (top-level so it pickles under ``--jobs``).

    One JIT-only run with inline caches on and CBS attached yields both
    profiles of the *same* execution: the exact per-site receiver counts
    the ICs accumulate as a dispatch by-product, and the sampled DCG.
    """
    name, size, vm_name, hot = cell
    stride, samples = CBS_PARAMS[vm_name]
    program = program_for(name, size)
    config = config_named(vm_name)
    cache = jit_only_cache(program, config.cost_model, level=0)
    vm = Interpreter(program, config, cache)
    profiler = CBSProfiler(stride=stride, samples_per_tick=samples)
    vm.attach_profiler(profiler)
    vm.run()
    exact = ReceiverProfile.from_cache(cache)
    rows = []
    for (caller, pc), total in exact.hot_sites(hot):
        counts = exact.site_counts(caller, pc)
        rows.append(
            ReceiverSiteRow(
                benchmark=name,
                site=f"{program.functions[caller].qualified_name}@{pc}",
                classes=len(counts),
                calls=int(total),
                overlap=exact.site_overlap(program, profiler.dcg, caller, pc),
            )
        )
    return rows


def compute_receiver_accuracy(
    vm_name: str = "jikes",
    benchmarks: list[str] | None = None,
    size: str = "small",
    hot_sites: int = 5,
    jobs: int = 1,
) -> list[ReceiverSiteRow]:
    """Per-hot-site receiver-distribution accuracy of CBS, across the
    steady-state suite.  Cells are independent single runs, so they fan
    out over processes; results are identical for any ``jobs``."""
    names = benchmarks if benchmarks is not None else STEADY_BENCHMARKS
    cells = [(name, size, vm_name, hot_sites) for name in names]
    return [row for rows in pmap(_receiver_cell, cells, jobs) for row in rows]


def render_receiver_accuracy(rows: list[ReceiverSiteRow], vm_name: str) -> str:
    table_rows = [
        [r.benchmark, r.site, r.classes, r.calls, r.overlap] for r in rows
    ]
    if rows:
        table_rows.append(
            [
                "Mean",
                "",
                "",
                "",
                sum(r.overlap for r in rows) / len(rows),
            ]
        )
    return render_table(
        ["Benchmark", "Hot virtual site", "classes", "exact calls", "cbs overlap %"],
        table_rows,
        title=(
            f"Receiver-distribution accuracy ({vm_name}): CBS sample vs the "
            f"exact inline-cache profile, per hot site"
        ),
    )


def main(quick: bool = False, vm_name: str = "jikes", jobs: int = 1) -> str:
    if quick:
        rows = compute_figure5(
            vm_name, benchmarks=STEADY_BENCHMARKS[:3], size="tiny", iterations=6
        )
        receiver_rows = compute_receiver_accuracy(
            vm_name, benchmarks=STEADY_BENCHMARKS[:3], size="tiny",
            hot_sites=3, jobs=jobs,
        )
    else:
        rows = compute_figure5(vm_name)
        receiver_rows = compute_receiver_accuracy(vm_name, jobs=jobs)
    return (
        render_figure5(rows, vm_name)
        + "\n\n"
        + render_receiver_accuracy(receiver_rows, vm_name)
    )
