"""Parallel fan-out for the experiment harness.

The harness's unit of work is a *cell*: one (benchmark, profiler, seed)
combination run on one VM configuration.  Cells are completely
independent — every run builds its own program, code cache, and
interpreter, and the VM's clock is virtual — so they parallelize
perfectly across host processes.

Two layers:

* :func:`pmap` — a deterministic ordered map.  ``jobs <= 1`` runs the
  function inline in this process (no executor, no pickling, identical
  tracebacks); ``jobs > 1`` fans out over a ``ProcessPoolExecutor``
  using ``executor.map``, which preserves input order regardless of
  completion order.  Results are therefore byte-identical for any job
  count.  Workers are started with ``spawn`` on every platform: a
  ``fork`` from a process with threads running can deadlock the child
  (CPython 3.12+ warns about it), and one start method means one
  behaviour everywhere.  One pool per worker count lives for the
  whole process, so a spawned worker pays its fresh import once, not
  once per table; a pool a dead worker broke is dropped, never reused.
* :func:`run_sweep` — maps :func:`run_cell` over :class:`SweepCell`
  descriptions.  Cells and results are plain picklable dataclasses of
  scalars; profilers are named, not passed, and constructed inside the
  worker so nothing stateful crosses the process boundary.

The per-run baseline cache in :mod:`repro.harness.runner` is
per-process: a spawned worker starts from a fresh import of the
function's module and inherits nothing from the parent's caches, so
each warms its own.  Sweeps are grouped by
benchmark (the executor maps in input order with ``chunksize`` 1, so
adjacent cells of one benchmark tend to land on warm workers).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.harness.runner import measure_profiler
from repro.profiling.cbs import CBSProfiler
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.timer_sampler import TimerProfiler


#: Worker count -> the process's pool of that size.  Workers spawn on
#: demand, up to the count, and stop when the process exits.
_POOLS: dict[int, ProcessPoolExecutor] = {}


def pmap(fn, items, jobs: int = 1) -> list:
    """Map ``fn`` over ``items``, in order, optionally across processes.

    With ``jobs == 1`` (or fewer than two items) this is a plain list
    comprehension — no executor is created, so callers pay nothing for
    the parallel capability when they don't use it and ``fn`` need not
    be picklable.  With ``jobs > 1``, ``fn`` and every item must be
    picklable (top-level functions, dataclasses of scalars).
    ``jobs <= 0`` auto-detects the host's CPU count.
    """
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    pool = _POOLS.get(jobs)
    if pool is None:
        spawn = multiprocessing.get_context("spawn")
        pool = _POOLS[jobs] = ProcessPoolExecutor(max_workers=jobs, mp_context=spawn)
    try:
        return list(pool.map(fn, items, chunksize=1))
    except BrokenProcessPool:
        _POOLS.pop(jobs, None)
        pool.shutdown(wait=False)
        raise


#: Profiler factories by name.  Constructed inside the worker process;
#: ``kwargs`` come from ``SweepCell.profiler_args``.
PROFILER_FACTORIES = {
    "exhaustive": ExhaustiveProfiler,
    "timer": TimerProfiler,
    "cbs": CBSProfiler,
}


@dataclass(frozen=True)
class SweepCell:
    """One independent experiment: picklable description, no live objects.

    ``profiler_args`` is a tuple of ``(name, value)`` pairs (not a dict)
    so cells stay hashable and deterministic under pickling.
    """

    benchmark: str
    size: str = "small"
    profiler: str = "cbs"
    profiler_args: tuple = ()
    vm: str = "jikes"
    opt_level: int = 0

    def make_profiler(self):
        factory = PROFILER_FACTORIES.get(self.profiler)
        if factory is None:
            raise ValueError(
                f"unknown profiler {self.profiler!r}; "
                f"expected one of {sorted(PROFILER_FACTORIES)}"
            )
        return factory(**dict(self.profiler_args))


@dataclass(frozen=True)
class SweepResult:
    """Scalars only — crosses the process boundary without surprises."""

    cell: SweepCell
    accuracy: float
    overhead_percent: float
    samples: int
    time: int


def run_cell(cell: SweepCell) -> SweepResult:
    """Execute one cell.  Top-level so it pickles for worker processes."""
    run = measure_profiler(
        cell.benchmark,
        cell.size,
        cell.make_profiler(),
        vm_name=cell.vm,
        opt_level=cell.opt_level,
    )
    return SweepResult(
        cell=cell,
        accuracy=run.accuracy,
        overhead_percent=run.overhead_percent,
        samples=run.samples,
        time=run.time,
    )


def run_sweep(cells: list[SweepCell], jobs: int = 1) -> list[SweepResult]:
    """Run every cell; results are in cell order for any ``jobs``."""
    return pmap(run_cell, cells, jobs)
