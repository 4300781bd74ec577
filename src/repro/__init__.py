"""repro — reproduction of Arnold & Grove, "Collecting and Exploiting
High-Accuracy Call Graph Profiles in Virtual Machines" (CGO 2005).

The package builds, from scratch, everything the paper's experiments
need: a small object-oriented language (Mini) with a compiler to stack
bytecode, an interpreting VM with a deterministic virtual clock and
Jikes-RVM-style yieldpoints, the paper's counter-based sampling (CBS)
profiler plus every baseline profiler it is compared against,
feedback-directed inliners, an adaptive optimization system, a
13-program benchmark suite, and harnesses regenerating each table and
figure.

Quickstart::

    from repro import compile_source, Interpreter, CBSProfiler

    program = compile_source(open("app.mini").read())
    vm = Interpreter(program)
    vm.attach_profiler(CBSProfiler(stride=3, samples_per_tick=16))
    vm.run()
    print(vm.profiler.dcg.describe(program))
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "compile_program": ".frontend.codegen",
        "compile_source": ".frontend.codegen",
        "CBSProfiler": ".profiling.cbs",
        "DCG": ".profiling.dcg",
        "ExhaustiveProfiler": ".profiling.exhaustive",
        "accuracy": ".profiling.metrics",
        "overlap": ".profiling.metrics",
        "TimerProfiler": ".profiling.timer_sampler",
        "Tracer": ".telemetry.tracer",
        "j9_config": ".vm.config",
        "jikes_config": ".vm.config",
        "Interpreter": ".vm.interpreter",
        "run_program": ".vm.interpreter",
    },
)
