"""Differential suite for the path-profiling subsystem.

Three layers of identity, mirroring the fusion/IC identity suites:

* a *paths-ready* VM (control-free fusion subset, no tracker) is
  bit-identical to the plain VM in everything the experiments measure;
* a *charge-free* tracker of any mode observes without perturbing —
  same output, virtual time, steps, ticks, and telemetry event stream;
* *charged* trackers cost virtual time by the declared model:
  minimum-coverage placement strictly cheaper than exhaustive on
  branchy code while producing the *same* profile, CBS cheaper still
  while producing a subset.
"""

from __future__ import annotations

from repro.benchsuite.suite import program_for
from repro.profiling.paths import PATH_MODES, PathTracker
from repro.telemetry.exporters import jsonl_lines
from repro.telemetry.tracer import Tracer
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter

PROGRAMS = ["compress", "jess", "javac"]


def _observables(vm):
    return (list(vm.output), vm.time, vm.steps, vm.ticks, vm.call_count)


def _run(program, paths=False, tracker=None, tracer=None):
    vm = Interpreter(program, jikes_config(paths=paths))
    if tracker is not None:
        vm.attach_paths(tracker)
    if tracer is not None:
        vm.attach_telemetry(tracer)
    vm.run()
    return vm


def test_paths_ready_cache_is_bit_identical():
    for name in PROGRAMS:
        program = program_for(name, "tiny")
        plain = _run(program)
        ready = _run(program, paths=True)
        assert _observables(ready) == _observables(plain), name


def test_charge_free_trackers_preserve_identity():
    for name in PROGRAMS:
        program = program_for(name, "tiny")
        plain = _run(program)
        for mode in PATH_MODES:
            tracker = PathTracker(mode=mode, charge=False, stride=1)
            vm = _run(program, paths=True, tracker=tracker)
            assert _observables(vm) == _observables(plain), (name, mode)
            if mode != "cbs":
                assert tracker.records > 0, (name, mode)


def test_charge_free_tracker_leaves_event_stream_untouched():
    program = program_for("jess", "tiny")
    base_tracer = Tracer()
    _run(program, paths=True, tracer=base_tracer)
    tracer = Tracer()
    _run(
        program,
        paths=True,
        tracker=PathTracker(mode="exhaustive", charge=False),
        tracer=tracer,
    )
    assert jsonl_lines(tracer)[:-1] == jsonl_lines(base_tracer)[:-1]
    # Metrics (not events) still expose the rider's counts.
    assert tracer.metrics.snapshot()["paths.total"]["value"] > 0


def test_exhaustive_and_mincov_profiles_identical():
    for name in PROGRAMS:
        program = program_for(name, "tiny")
        exhaustive = PathTracker(mode="exhaustive", charge=False)
        mincov = PathTracker(mode="mincov", charge=False)
        _run(program, paths=True, tracker=exhaustive)
        _run(program, paths=True, tracker=mincov)
        assert exhaustive.profile.counts == mincov.profile.counts, name
        assert mincov.increments <= exhaustive.increments


def test_cbs_counts_are_a_subset_of_exhaustive():
    program = program_for("jess", "small")
    exhaustive = PathTracker(mode="exhaustive", charge=False)
    cbs = PathTracker(mode="cbs", charge=False, stride=1, samples_per_tick=32)
    _run(program, paths=True, tracker=exhaustive)
    _run(program, paths=True, tracker=cbs)
    assert cbs.windows > 0 and cbs.records > 0
    for key, count in cbs.profile.counts.items():
        assert count <= exhaustive.profile.counts.get(key, 0), key


def test_charged_mincov_is_strictly_cheaper_than_exhaustive():
    program = program_for("jess", "tiny")
    base = _run(program, paths=True)
    exhaustive = PathTracker(mode="exhaustive", charge=True)
    mincov = PathTracker(mode="mincov", charge=True)
    vm_exhaustive = _run(program, paths=True, tracker=exhaustive)
    vm_mincov = _run(program, paths=True, tracker=mincov)
    assert vm_exhaustive.output == vm_mincov.output == base.output
    assert base.time < vm_mincov.time < vm_exhaustive.time
    # Charging never changes what is recorded.
    assert exhaustive.profile.counts == mincov.profile.counts


def test_charged_tracker_emits_paths_summary_event():
    program = program_for("jess", "tiny")
    tracer = Tracer()
    tracker = PathTracker(mode="mincov", charge=True)
    _run(program, paths=True, tracker=tracker, tracer=tracer)
    summaries = [e for e in tracer.events if e.name == "paths_summary"]
    assert len(summaries) == 1
    assert summaries[0].args()["mode"] == "mincov"
    assert summaries[0].args()["total"] == tracker.records


def test_path_metrics_are_per_run_deltas():
    """Like every other host counter, ``paths.*`` counters add one run's
    delta per ``run()``, so after two runs the tracer's totals are the
    tracker's own (not the sum of its cumulative figures)."""
    program = program_for("jess", "tiny")
    for mode in PATH_MODES:
        tracker = PathTracker(mode=mode, charge=False, stride=1)
        tracer = Tracer()
        vm = _run(program, paths=True, tracker=tracker, tracer=tracer)
        vm.run()
        summary = tracker.summary()
        assert summary["total"] > 0, mode
        snapshot = tracer.metrics.snapshot()
        for key in ("total", "increments", "windows", "distinct"):
            assert snapshot[f"paths.{key}"]["value"] == summary[key], (mode, key)
