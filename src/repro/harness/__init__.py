"""Experiment harnesses regenerating every table and figure."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "BaselineResult": ".runner",
        "ProfiledRun": ".runner",
        "SteadyStateResult": ".runner",
        "clear_baseline_cache": ".runner",
        "measure_baseline": ".runner",
        "measure_profiler": ".runner",
        "run_steady_state": ".runner",
    },
)
