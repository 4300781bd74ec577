"""Inlining policies: static, old Jikes, new Jikes, and J9."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "J9Inliner": ".j9_inliner",
        "NewJikesInliner": ".new_inliner",
        "OldJikesInliner": ".old_inliner",
        "BudgetConfig": ".policy",
        "InlinerPolicy": ".policy",
        "SiteDecision": ".policy",
        "StaticSizePolicy": ".static_heur",
        "TRIVIAL_SIZE": ".static_heur",
        "TrivialOnlyPolicy": ".static_heur",
    },
)
