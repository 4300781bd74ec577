"""Timing, counting, checking and span recording shared by every workload.

Everything here observes the program from outside: a timed call is a
call into one of ``repro``'s public functions bracketed by
``time.perf_counter``; a span is the same bracket kept as a row.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")
#: Scratch: results, span files, profiles, fleet repositories (git-ignored).
OUT = os.path.join(HERE, "out")


def undisturbed(samples: list[float]) -> float:
    """The time of the fastest sample.

    Interference on a shared host only ever *adds* time, and on the
    hosts this runs on it is bimodal: episodes lasting seconds in which
    everything takes ~1.6x as long.  Within a 20-second run the median
    of a stage's samples then moves by 15% from run to run and the
    lower quartile by 10%, because either lands in whichever mode
    happened to cover most of the run; the fastest of ten or more
    interleaved samples stays within 3%.  So each stage is sampled at
    least ten times, spread over the whole run, and the fastest is
    reported (the statistic ``timeit`` recommends for the same reason).
    """
    return min(samples)


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


class Recorder:
    """Samples, exact counts, correctness checks and spans of one pass."""

    def __init__(self, tracing: bool = False):
        self.tracing = tracing
        #: stage name -> item (program, or None) -> seconds per rep
        self.samples: dict[str, dict[str | None, list[float]]] = {}
        #: (name, item) -> value; a count must read the same every rep
        self.counts: dict[tuple[str, str | None], float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: While true, steady-state samples are dropped (first rep).
        self.warming = False
        #: [name, trace id, parent row, start, end]
        self.spans: list[list] = []
        self._open: list[int] = []

    # -- timing -------------------------------------------------------------------

    def timed(self, name: str, item: str | None, fn, *args, cold: bool = False):
        """Call ``fn(*args)``; keep its wall time under ``name``/``item``.

        Garbage is collected before (never during, unless the callee
        triggers it) the timed call.  ``cold`` samples survive the
        warm-up rep: they measure a cost users pay on every start.
        """
        gc.collect()
        with self.span(name, item):
            started = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - started
        self.add(name, item, elapsed, cold)
        return result

    def add(self, name: str, item: str | None, seconds: float, cold: bool = False) -> None:
        if cold or not self.warming:
            self.samples.setdefault(name, {}).setdefault(item, []).append(seconds)

    def total(self, name: str) -> float:
        """Sum over items of each item's undisturbed time."""
        return sum(undisturbed(s) for s in self.samples.get(name, {}).values())

    def fastest(self, name: str, item: str | None = None) -> float:
        return undisturbed(self.samples[name][item])

    def fastest_by_item(self) -> dict:
        """Every stage's undisturbed time per item (the per-program rows)."""
        return {
            stage: {str(item): undisturbed(values) for item, values in by_item.items()}
            for stage, by_item in self.samples.items()
        }

    # -- counts and checks --------------------------------------------------------

    def count(self, name: str, item: str | None, value: float) -> None:
        """Record a deterministic count; a rep that disagrees fails."""
        key = (name, item)
        if key not in self.counts:
            self.counts[key] = value
        else:
            self.check(
                self.counts[key] == value,
                f"{name}[{item}] read {value}, earlier rep read {self.counts[key]}",
            )

    def count_total(self, name: str) -> float:
        return sum(v for (n, _), v in self.counts.items() if n == name)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def tally(self, attempted: int, failures: list[str]) -> None:
        """Operations checked elsewhere (the load threads check their own)."""
        self.attempted += attempted - len(failures)
        for failure in failures:
            self.check(False, failure)

    # -- spans --------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, trace_id: str | None):
        if not self.tracing:
            yield
            return
        row = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, trace_id, parent, time.perf_counter(), None])
        self._open.append(row)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[row][4] = time.perf_counter()

    def add_span(self, name: str, trace_id: str | None, start: float, end: float) -> None:
        """A span timed elsewhere (a load thread), parented to the open span."""
        if self.tracing:
            parent = self._open[-1] if self._open else None
            self.spans.append([name, trace_id, parent, start, end])

    def self_times(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total seconds, self seconds), biggest self first.

        Self time is a span's duration minus its direct children's,
        floored at zero: the two load connections of ``fleet_mixed`` run
        concurrently, so their spans cover their parent twice.
        """
        children = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        table: dict[str, list] = {}
        for row, (name, _, _, start, end) in enumerate(self.spans):
            entry = table.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += max(0.0, end - start - children[row])
        return sorted(
            ((n, c, t, s) for n, (c, t, s) in table.items()), key=lambda r: -r[3]
        )

    def write_spans(self, path: str) -> None:
        keys = ("name", "trace_id", "parent", "start", "end")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, row)) for row in self.spans], handle)


class Workload:
    """What ``run.py`` drives: set-up, an untraced rep, a staged rep."""

    name: str
    #: Drop the first rep's steady-state samples as warm-up.
    warmup_rep = True
    #: Count the largest child process in ``peak_rss_mb``.
    children_in_rss = False

    def prepare(self, seed: int, quick: bool):
        """Inputs from the seed: everything ``setup_s`` pays for."""
        raise NotImplementedError

    def rep(self, rec: Recorder, inputs) -> None:
        """One pass over the inputs through whole public entry points."""
        raise NotImplementedError

    def traced_rep(self, rec: Recorder, inputs) -> None:
        """The same work with the stages behind them called apart."""
        raise NotImplementedError

    def traced_once(self, rec: Recorder, inputs, quick: bool) -> None:
        """Layer measurements made once per run, not once per rep."""

    def end_to_end(self, rec: Recorder, inputs) -> dict:
        raise NotImplementedError

    def per_layer(self, rec: Recorder, traced: Recorder, inputs) -> dict:
        raise NotImplementedError

    def same_work_seconds(self, rec: Recorder, traced: Recorder) -> tuple[float, float]:
        """(untraced, traced) time of the work both passes did."""
        raise NotImplementedError
