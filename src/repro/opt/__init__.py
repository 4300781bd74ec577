"""The optimizing tier: inlining transform, CHA, cleanup passes."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "ClassHierarchyAnalysis": ".cha",
        "fold_constants": ".constfold",
        "eliminate_dead_code": ".dce",
        "DEVIRTUALIZE": ".inline",
        "DIRECT": ".inline",
        "GUARDED": ".inline",
        "InlineDecision": ".inline",
        "InlineError": ".inline",
        "InlinePlan": ".inline",
        "InlineTransform": ".inline",
        "OptimizationResult": ".pipeline",
        "cleanup": ".pipeline",
        "optimize_function": ".pipeline",
    },
)
