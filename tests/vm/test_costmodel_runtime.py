"""Cost model and code cache tests."""

from dataclasses import replace

from repro.bytecode.opcodes import Op
from repro.frontend.codegen import compile_source
from repro.vm.costmodel import CostModel, j9_cost_model, jikes_cost_model
from repro.vm.interpreter import Interpreter
from repro.vm.runtime import CodeCache, CompiledMethod
from tests.helpers import make_trivial_return_zero


def with_op_cost(model: CostModel, op: Op, cost: int) -> CostModel:
    return replace(model, op_costs={**model.op_costs, op: cost})


def test_cost_array_is_dense_and_complete():
    table = jikes_cost_model().cost_array()
    for op in Op:
        assert table[int(op)] == jikes_cost_model().op_costs[op]


def test_presets_differ():
    assert jikes_cost_model() != j9_cost_model()
    assert j9_cost_model().call_virtual_cost < jikes_cost_model().call_virtual_cost


def test_compiled_method_unzips_code():
    function = make_trivial_return_zero("t")
    function.index = 0
    method = CompiledMethod(function, jikes_cost_model(), opt_level=0)
    assert method.ops == [int(Op.PUSH), int(Op.RETURN_VAL)]
    assert method.a == [0, None]
    assert len(method.costs) == 2
    assert method.size_bytes == function.bytecode_size()


def test_code_cache_compiles_all_functions():
    program = compile_source("def g(): int { return 1; } def main() { print(g()); }")
    cache = CodeCache(program, jikes_cost_model())
    assert len(cache.methods) == len(program.functions)
    assert all(m.opt_level == 0 for m in cache.methods)
    assert cache.compile_count == len(program.functions)


def test_code_cache_install_replaces_version():
    program = compile_source("def g(): int { return 1; } def main() { print(g()); }")
    cache = CodeCache(program, jikes_cost_model())
    g = program.function_named("g")
    before = cache.current(g.index)
    cache.install(g, opt_level=2)
    after = cache.current(g.index)
    assert after is not before
    assert after.opt_level == 2
    assert cache.opt_level(g.index) == 2


def test_compile_time_charged_per_level():
    program = compile_source("def g(): int { return 1; } def main() { print(g()); }")
    model = jikes_cost_model()
    cache = CodeCache(program, model)
    base_time = cache.compile_time
    g = program.function_named("g")
    cache.install(g, opt_level=2)
    delta = cache.compile_time - base_time
    assert delta == model.compile_cost_per_byte[2] * g.bytecode_size()


def test_costs_drive_virtual_time():
    # Same step count, different op costs => different virtual time.
    source = "def main() { var t = 0; for (var i = 0; i < 1000; i = i + 1) { t = t * 3; } print(t); }"
    cheap = with_op_cost(jikes_cost_model(), Op.MUL, 1)
    pricey = with_op_cost(jikes_cost_model(), Op.MUL, 50)
    from repro.vm.config import jikes_config

    vm1 = Interpreter(compile_source(source), jikes_config(cost_model=cheap))
    vm1.run()
    vm2 = Interpreter(compile_source(source), jikes_config(cost_model=pricey))
    vm2.run()
    assert vm1.steps == vm2.steps
    assert vm2.time > vm1.time


def test_custom_cost_model_defaults_complete():
    model = CostModel()
    assert set(model.op_costs) == set(Op)
