"""The adaptive optimization system: sampling-driven recompilation."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "AdaptiveConfig": ".controller",
        "AdaptiveSystem": ".controller",
        "CompilationEvent": ".controller",
        "jit_only_cache": ".modes",
        "DecayingDCGOrganizer": ".organizer",
        "HotMethodOrganizer": ".organizer",
    },
)
