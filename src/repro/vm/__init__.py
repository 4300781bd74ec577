"""The Mini virtual machine: interpreter, cost model, configurations."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "VMConfig": ".config",
        "config_named": ".config",
        "j9_config": ".config",
        "jikes_config": ".config",
        "CostModel": ".costmodel",
        "j9_cost_model": ".costmodel",
        "jikes_cost_model": ".costmodel",
        "ArrayBoundsError": ".errors",
        "DivisionByZeroError": ".errors",
        "NullPointerError": ".errors",
        "StackOverflowError_": ".errors",
        "StepLimitExceeded": ".errors",
        "VMError": ".errors",
        "Frame": ".interpreter",
        "Interpreter": ".interpreter",
        "run_program": ".interpreter",
        "CodeCache": ".runtime",
        "CompiledMethod": ".runtime",
        "HeapArray": ".values",
        "HeapObject": ".values",
        "BACKEDGE": ".yieldpoint",
        "EPILOGUE": ".yieldpoint",
        "PROLOGUE": ".yieldpoint",
        "Profiler": ".yieldpoint",
        "YP_ALL": ".yieldpoint",
        "YP_CBS": ".yieldpoint",
        "YP_NONE": ".yieldpoint",
    },
)
