"""Tests for the parallel experiment fan-out.

The contract under test: results are *identical* — same values, same
order — for any ``jobs`` value, because ``executor.map`` preserves
input order and every cell is deterministic and self-contained.
"""

from __future__ import annotations

import pytest

from repro.harness import table1, table2
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


def test_pmap_inline_matches_plain_map():
    assert pmap(_square, range(7), jobs=1) == [x * x for x in range(7)]


def test_pmap_preserves_order_across_processes():
    assert pmap(_square, range(12), jobs=2) == [x * x for x in range(12)]


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
