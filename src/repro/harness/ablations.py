"""Ablation studies for the design choices DESIGN.md calls out.

Each function isolates one knob:

* :func:`stride_vs_samples` — which parameter buys the accuracy (the
  paper: javac's gain was "mostly due to increasing Samples"),
* :func:`skip_policy_comparison` — random vs round-robin initial skip,
* :func:`entry_check_cost` — overloaded flag vs dedicated 3-instruction
  check (paper §4 "Implementation Options"),
* :func:`inliner_comparison` — old vs new Jikes inliner under the same
  profile (paper §5.1: the new inliner won ~3% even with timer data),
* :func:`context_sensitivity_cost` — what deeper stack walks buy and
  cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchsuite.suite import program_for
from repro.harness.runner import measure_profiler, run_steady_state
from repro.profiling.cbs import CBSProfiler
from repro.profiling.cct import context_overlap
from repro.profiling.timer_sampler import TimerProfiler
from repro.adaptive.modes import jit_only_cache
from repro.inlining.new_inliner import NewJikesInliner
from repro.inlining.old_inliner import OldJikesInliner
from repro.vm.config import config_named
from repro.vm.interpreter import Interpreter


@dataclass
class AblationPoint:
    label: str
    accuracy: float = 0.0
    overhead_percent: float = 0.0
    extra: float = 0.0


def _average_accuracy(benchmarks, size, profiler_factory, vm_name="jikes"):
    accuracies = []
    overheads = []
    for name in benchmarks:
        run = measure_profiler(name, size, profiler_factory(), vm_name=vm_name)
        accuracies.append(run.accuracy)
        overheads.append(run.overhead_percent)
    count = len(benchmarks)
    return sum(accuracies) / count, sum(overheads) / count


def stride_vs_samples(
    benchmarks: list[str], size: str = "small", budget: int = 64
) -> list[AblationPoint]:
    """Hold the per-tick *sampling budget* fixed and trade stride against
    samples: (stride, samples) pairs with samples <= budget."""
    points = []
    configurations = [
        ("samples-only", 1, budget),
        ("balanced", 7, budget // 8),
        ("stride-heavy", 31, max(budget // 32, 1)),
        ("stride-only", budget, 1),
    ]
    for label, stride, samples in configurations:
        acc, ovh = _average_accuracy(
            benchmarks,
            size,
            lambda s=stride, n=samples: CBSProfiler(stride=s, samples_per_tick=n),
        )
        points.append(AblationPoint(f"{label} (S={stride},N={samples})", acc, ovh))
    return points


def skip_policy_comparison(
    benchmarks: list[str], size: str = "small", stride: int = 15, samples: int = 16
) -> list[AblationPoint]:
    points = []
    for policy in ("random", "roundrobin"):
        acc, ovh = _average_accuracy(
            benchmarks,
            size,
            lambda p=policy: CBSProfiler(
                stride=stride, samples_per_tick=samples, skip_policy=p
            ),
        )
        points.append(AblationPoint(policy, acc, ovh))
    return points


def entry_check_cost(name: str, size: str = "small") -> list[AblationPoint]:
    """Overloaded flag (zero idle cost) vs dedicated 3-instruction check."""
    points = []
    for label, overloaded in (("overloaded-flag", True), ("dedicated-check", False)):
        config = config_named("jikes", overloaded_entry_check=overloaded)
        program = program_for(name, size)
        vm = Interpreter(
            program, config, jit_only_cache(program, config.cost_model, 0)
        )
        vm.run()
        points.append(AblationPoint(label, extra=float(vm.time)))
    base = points[0].extra
    for point in points:
        point.overhead_percent = 100.0 * (point.extra - base) / base
    return points


def inliner_comparison(
    benchmarks: list[str], size: str = "small", iterations: int = 8
) -> list[AblationPoint]:
    """Old vs new Jikes inliner, both fed the same CBS profile; speedups
    are relative to the old inliner with timer profiles (the pre-paper
    production configuration)."""
    configurations = [
        ("old+timer", OldJikesInliner, TimerProfiler),
        ("old+cbs", OldJikesInliner,
         lambda: CBSProfiler(stride=3, samples_per_tick=16)),
        ("new+timer", NewJikesInliner, TimerProfiler),
        ("new+cbs", NewJikesInliner,
         lambda: CBSProfiler(stride=3, samples_per_tick=16)),
    ]
    steady_times = {}
    for label, policy_class, profiler_factory in configurations:
        steady_times[label] = [
            run_steady_state(
                name, size, "jikes", policy_class(program_for(name, size)),
                profiler=profiler_factory(), iterations=iterations,
            ).steady_time
            for name in benchmarks
        ]
    reference = steady_times["old+timer"]
    points = []
    for label, times in steady_times.items():
        speedups = [100.0 * (ref - t) / t for ref, t in zip(reference, times)]
        points.append(AblationPoint(label, extra=sum(speedups) / len(speedups)))
    return points


def context_sensitivity_cost(
    name: str = "kawa", size: str = "small", depths: tuple[int, ...] = (1, 2, 4, 8)
) -> list[AblationPoint]:
    """Cost and payoff of deeper stack walks per sample.

    Accuracy column: plain context-insensitive overlap (unchanged by the
    extension).  ``extra``: number of distinct contexts observed — what
    the deeper walk buys.
    """
    points = []
    for depth in depths:
        profiler = CBSProfiler(stride=3, samples_per_tick=16, context_depth=depth)
        run = measure_profiler(name, size, profiler)
        contexts = (
            profiler.cct.node_count() if profiler.cct is not None else len(
                profiler.dcg.edges())
        )
        points.append(
            AblationPoint(
                f"depth={depth}", run.accuracy, run.overhead_percent, float(contexts)
            )
        )
    return points


def context_profile_agreement(
    name: str = "kawa", size: str = "small", depth: int = 4
) -> float:
    """Overlap between two independently seeded context-sensitive CBS
    profiles — a stability measure for the CCT extension."""
    program = program_for(name, size)
    profiles = []
    for seed in (11, 17):
        config = config_named("jikes")
        vm = Interpreter(
            program, config, jit_only_cache(program, config.cost_model, 0)
        )
        profiler = CBSProfiler(
            stride=3, samples_per_tick=16, context_depth=depth, seed=seed
        )
        vm.attach_profiler(profiler)
        vm.run()
        profiles.append(profiler.cct.context_profile())
    return context_overlap(profiles[0], profiles[1])
