"""The paper's headline claims, asserted on reduced slices of its tables,
figures and ablations.

Outside tier-1's ``testpaths`` (about a minute); CI runs it as its own job::

    PYTHONPATH=src python -m pytest benchmarks/test_claims.py -q

Each test computes one slice with the harness function that regenerates
the full experiment (``python -m repro.harness <target>``) and asserts
the shape the paper reports.  Tier-1's ``tests/integration/
test_paper_claims.py`` asserts the claims that hold on ``tiny`` inputs.
"""

import pytest

from repro.adaptive.modes import jit_only_cache
from repro.benchsuite.suite import benchmark_names, program_for
from repro.harness import runner
from repro.harness.ablations import (
    context_profile_agreement,
    context_sensitivity_cost,
    entry_check_cost,
    inliner_comparison,
    skip_policy_comparison,
    stride_vs_samples,
)
from repro.harness.convergence import compare_convergence, phase_change_study
from repro.harness.figure1 import compute_figure1
from repro.harness.figure5 import compute_figure5
from repro.harness.table1 import compute_table1
from repro.harness.table2 import compute_table2
from repro.harness.table3 import compute_table3
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.hardware import HardwareCallSampler
from repro.profiling.metrics import accuracy
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter


@pytest.fixture(autouse=True)
def fresh_baseline_cache():
    """Claims must not inherit each other's cached baselines."""
    runner.clear_baseline_cache()
    yield


# -- Table 1: benchmark characteristics ------------------------------------------------

TABLE1_SLICE = benchmark_names()[:6]


def test_table1_rows():
    rows = compute_table1(TABLE1_SLICE, sizes=("tiny", "small"))
    assert len(rows) == len(TABLE1_SLICE)
    for row in rows:
        # "large" here is the small input; it must dominate tiny.
        assert row.large_time_s > row.small_time_s
        assert row.small_methods > 0
        assert row.small_kb > 0


# -- Table 2: the Stride x Samples grid on both VMs ------------------------------------

TABLE2_SLICE = ["jess", "javac", "mtrt", "xerces"]
STRIDES = [1, 7, 31]
SAMPLES = [1, 16, 256]


def table2_grid(vm_name):
    cells = compute_table2(
        vm_name,
        benchmarks=TABLE2_SLICE,
        size="small",
        strides=STRIDES,
        samples_values=SAMPLES,
    )
    return {(c.stride, c.samples): c for c in cells}


def test_table2a_grid():
    by_key = table2_grid("jikes")

    # Accuracy grows with samples at every stride.
    for stride in STRIDES:
        accuracies = [by_key[(stride, n)].accuracy for n in SAMPLES]
        assert accuracies == sorted(accuracies), (stride, accuracies)

    # The default configuration (1,1) is the worst cell.
    worst = by_key[(1, 1)]
    assert all(c.accuracy >= worst.accuracy - 1.0 for c in by_key.values())

    # Overhead in the paper's "low" region stays under ~2%.
    assert by_key[(7, 16)].overhead_percent < 2.0

    # Overhead grows with samples.
    assert by_key[(1, 256)].overhead_percent > by_key[(1, 1)].overhead_percent


def test_table2b_grid():
    """The paper's point in running both VMs: the trends survive the
    substrate change (different cost model, prologue-only yieldpoints)."""
    by_key = table2_grid("j9")
    for stride in STRIDES:
        accuracies = [by_key[(stride, n)].accuracy for n in SAMPLES]
        assert accuracies == sorted(accuracies), (stride, accuracies)
    assert by_key[(7, 16)].overhead_percent < 2.0
    assert by_key[(7, 256)].accuracy > by_key[(1, 1)].accuracy + 10.0


# -- Table 3: per-benchmark base profiler vs the chosen CBS configuration --------------

TABLE3_SLICE = ["jess", "javac", "mtrt", "daikon", "xerces", "compress"]


def test_table3_jikes():
    rows = compute_table3("jikes", benchmarks=TABLE3_SLICE, sizes=("small",))
    gains = [r.cbs_accuracy - r.base_accuracy for r in rows]
    # CBS beats the timer baseline on nearly every benchmark; the paper
    # allows one compress-like outlier.
    assert sum(1 for g in gains if g > 0) >= len(rows) - 1
    average_base = sum(r.base_accuracy for r in rows) / len(rows)
    average_cbs = sum(r.cbs_accuracy for r in rows) / len(rows)
    assert average_cbs > average_base + 10.0
    # Overhead stays low for every benchmark (no spikes).
    assert max(r.cbs_overhead for r in rows) < 3.0


def test_table3_j9():
    rows = compute_table3("j9", benchmarks=TABLE3_SLICE, sizes=("small",))
    average_base = sum(r.base_accuracy for r in rows) / len(rows)
    average_cbs = sum(r.cbs_accuracy for r in rows) / len(rows)
    assert average_cbs > average_base + 10.0
    assert max(r.cbs_overhead for r in rows) < 3.0


# -- Figure 1: the timer-sampling pathology on the adversarial program -----------------


def test_figure1():
    """Timer sampling massively over-credits the first call after the
    compute stretch; CBS recovers the true 50/50 split."""
    by_name = {r.profiler: r for r in compute_figure1(size="small")}
    timer = by_name["timer"]
    cbs = by_name["cbs"]
    whaley = by_name["whaley"]

    # Timer: call_1 absorbs the overwhelming majority of the weight.
    assert timer.call_1_percent > 75.0
    assert timer.call_2_percent < 25.0

    # CBS: within a few points of the true 50/50 split, accuracy ~100.
    assert abs(cbs.call_1_percent - 50.0) < 5.0
    assert abs(cbs.call_2_percent - 50.0) < 5.0
    assert cbs.accuracy > 95.0

    # Both timer-driven schemes are far less accurate than CBS.
    assert cbs.accuracy > timer.accuracy + 20.0
    assert cbs.accuracy > whaley.accuracy + 20.0


# -- Figure 5: profile-directed inlining, timer-only vs CBS profiles -------------------


def test_figure5_jikes():
    """Left: the new Jikes inliner.  CBS-guided inlining is at least as
    good as timer-guided on average, and degrades no benchmark."""
    rows = compute_figure5(
        "jikes", benchmarks=["jess", "db", "mtrt", "javac"], size="small", iterations=8
    )
    average_timer = sum(r.timer_speedup for r in rows) / len(rows)
    average_cbs = sum(r.cbs_speedup for r in rows) / len(rows)

    # Profile-directed inlining helps, and the better profile helps more.
    assert average_cbs > 0.0
    assert average_cbs >= average_timer
    # The paper: "no program was degraded" under CBS on Jikes RVM.
    assert all(r.cbs_speedup > -1.0 for r in rows)


def test_figure5_j9():
    """Right: the J9 inliner's dynamic heuristics, relative to static
    heuristics only.  With CBS they give modest average gains; with
    timer-only profiles they *hurt* on most benchmarks (the cold-site
    test misfires)."""
    # The paper's benchmarks are short-running (0.5-4.5 s); the "tiny"
    # inputs put the profilers in the same sample-scarcity regime, which
    # is exactly where the timer-only cold test misfires.
    rows = compute_figure5(
        "j9",
        benchmarks=["jess", "db", "mtrt", "javac", "daikon", "jack", "xerces", "kawa"],
        size="tiny",
        iterations=8,
    )
    average_timer = sum(r.timer_speedup for r in rows) / len(rows)
    average_cbs = sum(r.cbs_speedup for r in rows) / len(rows)

    # CBS-guided dynamic heuristics beat timer-guided ones on average.
    assert average_cbs > average_timer
    # Timer-only *hurts* on most benchmarks (paper: 6 of 8).
    negative = sum(1 for r in rows if r.timer_speedup < 0)
    assert negative >= len(rows) // 2
    # CBS never degrades badly.
    assert all(r.cbs_speedup > -3.0 for r in rows)


def test_figure5_j9_compile_time():
    rows = compute_figure5("j9", benchmarks=["javac", "jack"], size="tiny", iterations=8)
    # Cold-site suppression reduces compilation on these benchmarks.
    for row in rows:
        assert row.compile_time_reduction > 0.0, row.benchmark


# -- Ablations of the design choices DESIGN.md calls out -------------------------------

ABLATION_SLICE = ["jess", "javac", "mtrt"]


def test_ablation_stride_vs_samples():
    """At a fixed per-tick budget, trading stride against samples.

    Paper §6.3: javac's gain was "mostly (but not entirely) due to
    increasing the value of Samples" — samples carry most of the
    accuracy; stride contributes by widening the window.
    """
    points = stride_vs_samples(ABLATION_SLICE, size="small")
    by_label = {p.label.split(" ")[0]: p for p in points}
    # All budget-equal configurations beat stride-only at N=1.
    assert by_label["samples-only"].accuracy > by_label["stride-only"].accuracy


def test_ablation_skip_policy():
    """Random vs round-robin initial skip (paper §4 offers both)."""
    random_point, rr_point = skip_policy_comparison(ABLATION_SLICE, size="small")
    # The two policies are interchangeable in accuracy (within a few
    # points) — the paper treats them as equivalent alternatives.
    assert abs(random_point.accuracy - rr_point.accuracy) < 8.0


def test_ablation_entry_check():
    """Overloaded flag vs dedicated 3-instruction entry check (§4)."""
    overloaded, dedicated = entry_check_cost("jess", size="small")
    assert overloaded.overhead_percent == 0.0
    # The dedicated check costs a measurable but small slowdown.
    assert 0.0 < dedicated.overhead_percent < 10.0


def test_ablation_old_vs_new_inliner():
    """Old vs new Jikes inliner (paper §5.1): the new inliner wins even
    with timer profiles, and grows further with CBS profiles.

    The slice is the complex-benchmark end of the suite (javac, daikon,
    kawa): the new inliner's edge is exploiting the *non-hot* profiled
    sites those programs have many of; on hot-spot-dominated benchmarks
    the two inliners converge (as the paper's §5.1 narrative implies).
    """
    points = inliner_comparison(["javac", "daikon", "kawa"], size="small")
    by_label = {p.label: p.extra for p in points}
    assert by_label["new+timer"] > by_label["old+timer"]
    assert by_label["new+cbs"] >= by_label["new+timer"] - 0.5
    assert by_label["new+cbs"] > by_label["old+cbs"]


def test_ablation_context_depth():
    """Cost/coverage of the context-sensitive extension."""
    points = context_sensitivity_cost("kawa", size="small")
    overheads = [p.overhead_percent for p in points]
    contexts = [p.extra for p in points]
    # Deeper walks cost more and observe more distinct contexts.
    assert overheads == sorted(overheads)
    assert contexts[-1] > contexts[0]


def test_ablation_context_stability():
    """Two independently seeded CCT profiles agree on the hot contexts.

    Measured on jess (stable context population).  kawa's context space
    is enormous relative to the sample budget, so its seed-to-seed
    overlap is genuinely low — an instructive limit of sampled CCTs.
    """
    assert context_profile_agreement("jess") > 80.0


# -- Extensions beyond the paper's tables ----------------------------------------------


def test_convergence_rate():
    """§2's second constraint: the profile must converge rapidly.

    CBS reaches the timer's *final* accuracy within a small fraction of
    the run.
    """
    curves = compare_convergence("javac", size="small")
    timer = next(c for c in curves if c.label == "timer")
    reached = curves[-1].ticks_to_reach(timer.final_accuracy())
    assert reached is not None
    assert reached <= timer.ticks[-1] // 2


def test_phase_change_tracking():
    """§3.2's criticism of burst profiling: jbb's transaction mix shifts
    mid-run; continuous CBS tracks it, one-burst patching cannot."""
    results = phase_change_study("jbb", size="small")
    by_label = {r.label.split(" ")[0]: r for r in results}
    assert (
        by_label["cbs"].late_phase_accuracy
        > by_label["patching"].late_phase_accuracy + 10.0
    )


@pytest.mark.parametrize("name", ["jess", "mtrt", "javac"])
def test_hardware_sampling_alternative(name):
    """§7: PMU-style call sampling is accurate (the trigger counts
    calls, like CBS) and cheap; skid blurs it only slightly.

    Call-dense benchmarks only: period-based sampling yields samples in
    proportion to the call count, so call-sparse programs (xerces,
    compress) get few samples — the same scarcity CBS has there.
    """
    baseline = runner.measure_baseline(name, "small")
    config = jikes_config()
    program = program_for(name, "small")
    vm = Interpreter(program, config, jit_only_cache(program, config.cost_model, 0))
    truth = ExhaustiveProfiler()
    truth.install(vm)
    sampler = HardwareCallSampler(period=101, max_skid=4, jitter=13)
    sampler.install(vm)
    vm.run()
    assert accuracy(sampler.dcg, truth.dcg) > 80.0
    assert 100.0 * (vm.time - baseline.time) / baseline.time < 1.0
