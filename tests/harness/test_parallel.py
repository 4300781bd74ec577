"""Tests for the parallel experiment fan-out.

The contract under test: results are *identical* — same values, same
order — for any ``jobs`` value, because ``executor.map`` preserves
input order and every cell is deterministic and self-contained.
Workers are spawned, never forked, so they share no state with the
parent and no thread of the parent can deadlock them.  One pool per
worker count serves every map of the process.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.harness import parallel, table1, table2
from repro.harness.parallel import (
    PROFILER_FACTORIES,
    SweepCell,
    SweepResult,
    pmap,
    run_cell,
    run_sweep,
)
from repro.harness.runner import measure_baseline


def _square(x: int) -> int:
    return x * x


#: Rebound in the test process only; a worker that imports this module
#: afresh reads the value assigned here.
_STATE = "as imported"


def _state(_item) -> str:
    return _STATE


def _pid(_item) -> int:
    return os.getpid()


def _die(_item) -> None:
    os._exit(1)


def test_pmap_inline_matches_plain_map():
    assert pmap(_square, range(7), jobs=1) == [x * x for x in range(7)]


def test_pmap_preserves_order_across_processes():
    assert pmap(_square, range(12), jobs=2) == [x * x for x in range(12)]


def test_pmap_workers_start_from_a_fresh_import(monkeypatch):
    # A forked worker would inherit the rebinding.
    monkeypatch.setattr(sys.modules[__name__], "_STATE", "set in the parent")
    assert pmap(_state, range(2), jobs=2) == ["as imported", "as imported"]


def test_pmap_does_not_fork_a_threaded_process():
    """CPython 3.12+ warns when a process with threads forks.  The
    warning cannot be made an error (``os.fork`` swallows the
    exception), so it is recorded and counted instead."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert pmap(_square, range(4), jobs=2) == [0, 1, 4, 9]
    finally:
        release.set()
        thread.join()
    assert [str(w.message) for w in caught if "fork()" in str(w.message)] == []


def test_pmap_reuses_one_pool_per_worker_count():
    pmap(_square, range(4), jobs=2)
    pool = parallel._POOLS[2]
    workers = set(pool._processes)
    assert set(pmap(_pid, range(8), jobs=2)) <= workers
    assert parallel._POOLS[2] is pool


def test_a_broken_pool_is_dropped_not_reused():
    with pytest.raises(BrokenProcessPool):
        pmap(_die, range(2), jobs=2)
    assert 2 not in parallel._POOLS
    assert pmap(_square, range(4), jobs=2) == [0, 1, 4, 9]


def test_pmap_empty_and_single():
    assert pmap(_square, [], jobs=4) == []
    assert pmap(_square, [3], jobs=4) == [9]


def test_pmap_auto_jobs():
    # jobs<=0 auto-detects the CPU count; still ordered and correct.
    assert pmap(_square, range(5), jobs=0) == [0, 1, 4, 9, 16]


def test_unknown_profiler_rejected():
    cell = SweepCell(benchmark="jess", profiler="nope")
    with pytest.raises(ValueError, match="unknown profiler"):
        cell.make_profiler()


@pytest.mark.parametrize("name", sorted(PROFILER_FACTORIES))
def test_every_registered_profiler_constructs(name):
    assert SweepCell(benchmark="jess", profiler=name).make_profiler() is not None


def test_run_cell_returns_scalars():
    cell = SweepCell(
        benchmark="jess",
        size="tiny",
        profiler="cbs",
        profiler_args=(("stride", 3), ("samples_per_tick", 16), ("seed", 7)),
    )
    result = run_cell(cell)
    assert isinstance(result, SweepResult)
    assert result.cell == cell
    assert result.time > 0
    assert 0.0 <= result.accuracy <= 100.0


def test_exhaustive_cell_runs():
    """The perfect profiler as a sweep cell: it grades itself 100 %,
    costs nothing uncharged, and counts every call it recorded."""
    result = run_cell(SweepCell(benchmark="jess", size="tiny", profiler="exhaustive"))
    assert result.accuracy == 100.0
    assert result.overhead_percent == 0.0
    assert result.samples == measure_baseline("jess", "tiny").perfect_dcg.total_weight > 0
    charged = run_cell(
        SweepCell(
            benchmark="jess", size="tiny", profiler="exhaustive",
            profiler_args=(("charge_costs", True),),
        )
    )
    assert charged.accuracy == 100.0
    assert charged.overhead_percent > 0.0
    assert charged.samples == result.samples


def test_sweep_identical_for_any_job_count():
    cells = [
        SweepCell(
            benchmark=name,
            size="tiny",
            profiler="cbs",
            profiler_args=(("stride", 3), ("samples_per_tick", 16), ("seed", seed)),
        )
        for name in ("jess", "javac")
        for seed in (1, 2)
    ]
    serial = run_sweep(cells, jobs=1)
    parallel = run_sweep(cells, jobs=2)
    assert serial == parallel


def test_table1_identical_for_any_job_count():
    serial = table1.compute_table1(["jess", "db"], sizes=("tiny", "tiny"), jobs=1)
    parallel = table1.compute_table1(["jess", "db"], sizes=("tiny", "tiny"), jobs=2)
    assert serial == parallel


def test_table2_identical_for_any_job_count():
    kwargs = dict(
        benchmarks=["jess"],
        size="tiny",
        strides=[1, 3],
        samples_values=[1, 16],
    )
    serial = table2.compute_table2("jikes", jobs=1, **kwargs)
    parallel = table2.compute_table2("jikes", jobs=2, **kwargs)
    assert serial == parallel
