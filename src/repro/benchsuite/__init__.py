"""Benchmark programs written in Mini, mirroring the paper's suite."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "GeneratorConfig": ".generator",
        "generate_program": ".generator",
        "generate_source": ".generator",
        "ADVERSARIAL": ".suite",
        "BENCHMARKS": ".suite",
        "Benchmark": ".suite",
        "SIZES": ".suite",
        "benchmark_names": ".suite",
        "clear_cache": ".suite",
        "get_benchmark": ".suite",
        "program_for": ".suite",
    },
)
