"""Benchmark suite tests: all programs compile, run, and are deterministic."""

import pytest

from repro.benchsuite.suite import (
    ADVERSARIAL,
    BENCHMARKS,
    benchmark_names,
    get_benchmark,
    program_for,
)
from repro.bytecode.verifier import verify_program
from repro.vm.config import j9_config, jikes_config
from repro.vm.interpreter import Interpreter, run_program

ALL_NAMES = benchmark_names()


def test_thirteen_benchmarks_like_the_paper():
    assert len(ALL_NAMES) == 13
    assert ALL_NAMES[:4] == ["compress", "jess", "db", "javac"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_benchmark_compiles_and_verifies(name):
    program = program_for(name, "tiny")
    verify_program(program)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_benchmark_runs_and_prints(name):
    vm = run_program(program_for(name, "tiny"), jikes_config())
    assert vm.output, f"{name} printed nothing"
    assert vm.call_count > 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_benchmark_deterministic(name):
    program = program_for(name, "tiny")
    first = run_program(program, jikes_config())
    second = run_program(program, jikes_config())
    assert first.output == second.output
    assert first.time == second.time
    assert first.steps == second.steps


@pytest.mark.parametrize("name", ALL_NAMES)
def test_same_output_on_both_vm_configs(name):
    program = program_for(name, "tiny")
    jikes = run_program(program, jikes_config())
    j9 = run_program(program, j9_config())
    assert jikes.output == j9.output


def test_sizes_ordered():
    for name in ALL_NAMES:
        benchmark = get_benchmark(name)
        assert benchmark.tiny_n <= benchmark.small_n <= benchmark.large_n


def test_iterations_validation():
    with pytest.raises(ValueError):
        get_benchmark("jess").iterations("huge")


def test_unknown_benchmark_rejected():
    with pytest.raises(KeyError):
        get_benchmark("nope")


def test_program_cache_returns_same_object():
    assert program_for("jess", "tiny") is program_for("jess", "tiny")


def test_adversarial_program_available():
    assert get_benchmark(ADVERSARIAL.name) is ADVERSARIAL
    vm = run_program(program_for("adversarial", "tiny"), jikes_config())
    assert vm.output


def test_adversarial_calls_are_balanced():
    # The two short calls must execute exactly the same number of times.
    from repro.profiling.exhaustive import ExhaustiveProfiler

    program = program_for("adversarial", "tiny")
    vm = Interpreter(program, jikes_config())
    perfect = ExhaustiveProfiler()
    perfect.install(vm)
    vm.run()
    weights = perfect.dcg.callee_weights()
    call_1 = program.function_index("Worker.call_1")
    call_2 = program.function_index("Worker.call_2")
    assert weights[call_1] == weights[call_2] > 0


def test_benchmarks_have_polymorphic_calls():
    # At least half the suite should have polymorphic dispatch (the paper's
    # motivation); verify via class counts with shared selectors.
    polymorphic = 0
    for name in ALL_NAMES:
        program = program_for(name, "tiny")
        from repro.opt.cha import ClassHierarchyAnalysis

        cha = ClassHierarchyAnalysis(program)
        if any(len(cha.possible_targets(sid)) > 1 for sid in range(len(program.selectors))):
            polymorphic += 1
    assert polymorphic >= 7


def test_descriptions_present():
    for name in ALL_NAMES:
        assert get_benchmark(name).description


def test_call_density_varies_across_suite():
    # compress must be the most call-sparse benchmark; jess/mtrt call-dense.
    densities = {}
    for name in ("compress", "jess", "mtrt"):
        vm = run_program(program_for(name, "tiny"), jikes_config())
        densities[name] = vm.call_count / vm.steps
    assert densities["compress"] < densities["jess"]
    assert densities["compress"] < densities["mtrt"]
