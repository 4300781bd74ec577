"""Dynamic call graph profiling: the paper's CBS technique plus every
baseline it is compared against (exhaustive, timer, code patching,
Whaley), the DCG/CCT data structures, and the accuracy metrics."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "CBSProfiler": ".cbs",
        "SKIP_POLICIES": ".cbs",
        "CallingContextTree": ".cct",
        "CCTNode": ".cct",
        "context_overlap": ".cct",
        "DCG": ".dcg",
        "Edge": ".dcg",
        "ExhaustiveProfiler": ".exhaustive",
        "INSTRUMENTATION_COST": ".exhaustive",
        "HardwareCallSampler": ".hardware",
        "CBSLoopProfiler": ".loops",
        "accuracy": ".metrics",
        "edge_coverage": ".metrics",
        "hot_edge_precision": ".metrics",
        "hot_edge_recall": ".metrics",
        "hot_edges": ".metrics",
        "overlap": ".metrics",
        "CodePatchingProfiler": ".patching",
        "ReceiverProfile": ".receivers",
        "ProfileFormatError": ".serialize",
        "ProfileMismatchWarning": ".serialize",
        "dcg_from_dict": ".serialize",
        "dcg_to_dict": ".serialize",
        "load_profile": ".serialize",
        "save_profile": ".serialize",
        "TimerProfiler": ".timer_sampler",
        "WhaleyProfiler": ".whaley",
    },
)
