"""Semantic analysis and code generation for Mini."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "compile_program": ".codegen",
        "compile_source": ".codegen",
        "build_class_table": ".hierarchy",
        "ClassTable": ".symbols",
        "FunctionTable": ".symbols",
        "MethodSig": ".symbols",
        "Scope": ".symbols",
        "CheckedProgram": ".typecheck",
    },
)
