"""Shared test utilities."""

from __future__ import annotations

import functools

from repro.benchsuite.generator import GeneratorConfig, generate_source
from repro.benchsuite.suite import benchmark_names, get_benchmark
from repro.frontend.codegen import compile_source
from repro.vm.config import VMConfig, jikes_config
from repro.vm.errors import VMError
from repro.vm.interpreter import Interpreter
from repro.vm.jit import JitManager


@functools.cache
def front_end_corpus() -> dict[str, str]:
    """Name → source of every benchsuite program (``tiny``) plus 50
    generated ones: what the reference-free front-end properties run over."""
    corpus = {name: get_benchmark(name).source("tiny") for name in benchmark_names()}
    for seed in range(50):
        config = GeneratorConfig(seed=seed, loop_iterations=5)
        corpus[f"generated-{seed}"] = generate_source(config)
    return corpus


def run_source(source: str, config: VMConfig | None = None) -> list[int]:
    """Compile and run Mini source; return the printed output."""
    program = compile_source(source)
    vm = Interpreter(program, config if config is not None else jikes_config())
    vm.run()
    return vm.output


def run_main_expr(expr: str, prelude: str = "") -> int:
    """Evaluate one Mini expression inside main() and return its value."""
    source = f"{prelude}\ndef main() {{ print({expr}); }}"
    output = run_source(source)
    assert len(output) == 1
    return output[0]


def vm_for(source: str, config: VMConfig | None = None) -> Interpreter:
    program = compile_source(source)
    return Interpreter(program, config if config is not None else jikes_config())


def receiver_mix_source(
    classes: int, iterations: int, body: str = "return x + {k};"
) -> str:
    """Mini source with one virtual call site, in ``main``'s loop, whose
    receivers rotate through ``classes`` classes: two is the inline
    cache's inline slots, up to eight its overflow rows, more than that
    megamorphic.  ``body`` is every ``f(x: int): int``, with ``{k}``
    the class's number from 1."""
    lines = []
    for k in range(classes):
        head = "class V0" if k == 0 else f"class V{k} extends V0"
        method = body.replace("{k}", str(k + 1))
        lines.append(f"{head} {{ def f(x: int): int {{ {method} }} }}")
    lines += ["def main() {", f"  var objs = new V0[{classes}];"]
    lines += [f"  objs[{k}] = new V{k}();" for k in range(classes)]
    lines += [
        "  var t = 0;",
        f"  for (var i = 0; i < {iterations}; i = i + 1) "
        f"{{ t = (t + objs[i % {classes}].f(t)) % 65521; }}",
        "  print(t);",
        "}",
    ]
    return "\n".join(lines)


def force_jit(vm: Interpreter) -> Interpreter:
    """Attach a plain-run JIT manager that promotes at first entry.

    Identity suites on tiny programs use this so they keep proving
    generated code against the interpreter; at the product threshold
    most of their methods would never get hot.  Call it after every
    hook is attached (hooks decide the compile signature) and before
    ``run()``, which leaves an attached manager alone."""
    vm.jit_manager = JitManager(vm, threshold=1)
    vm.jit_manager.attach()
    return vm


def run_transcript(program, config: VMConfig, prepare=None):
    """Run ``program`` and return the VM with its transcript, field for
    field what :func:`repro.fuzz.specexec.run_spec_reference` returns.
    ``prepare(vm)`` runs before ``run()`` (attach a JIT, a tick hook)."""
    vm = Interpreter(program, config)
    if prepare is not None:
        prepare(vm)
    error = None
    try:
        vm.run()
    except VMError as exc:
        error = (type(exc).__name__, str(exc), exc.function, exc.pc)
    return vm, {
        "output": list(vm.output),
        "time": vm.time,
        "steps": vm.steps,
        "ticks": vm.ticks,
        "calls": vm.call_count,
        "methods": vm.methods_executed,
        "error": error,
    }
