"""Ball-Larus path profiling seen through the CLI: ``run --paths`` in
each placement mode on jess ``small``, against the same run without
paths.

Collection is a zero-cost rider, so program output and the sampled DCG
must not move; the saved path rows and ``report --json`` must show
paths being counted; and the placements must agree with each other —
exhaustive and minimum-coverage exactly, CBS never above exhaustive.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.benchsuite.suite import get_benchmark
from repro.cli import main

MODES = ("exhaustive", "mincov", "cbs")
RIDERS = ["--profile", "cbs", "--seed", "7", "--stride", "1"]


def _main(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{mode: (stdout, saved profile)}``, mode ``None`` being the run
    without paths; each paths run also leaves ``report --json`` output
    under ``"report"``."""
    tmp = tmp_path_factory.mktemp("paths")
    jess = tmp / "jess.mini"
    jess.write_text(get_benchmark("jess").source("small"))
    results = {}
    for mode in (None, *MODES):
        profile = tmp / f"{mode or 'base'}.json"
        argv = ["run", str(jess), *RIDERS, "--save-profile", str(profile)]
        if mode is None:
            results[mode] = {"out": _main(argv)}
        else:
            trace = tmp / f"{mode}.jsonl"
            out = _main([*argv, "--paths", mode, "--trace", str(trace)])
            report = json.loads(_main(["report", str(trace), "--json"]))
            results[mode] = {"out": out, "report": report["paths"]}
        results[mode]["profile"] = json.loads(profile.read_text())
    return results


@pytest.mark.parametrize("mode", MODES)
def test_paths_ride_without_moving_output_or_dcg(runs, mode):
    assert runs[mode]["out"] == runs[None]["out"]
    assert runs[mode]["out"]
    assert runs[mode]["profile"]["edges"] == runs[None]["profile"]["edges"]


@pytest.mark.parametrize("mode", MODES)
def test_paths_are_saved_and_reported(runs, mode):
    assert runs[mode]["profile"]["paths"]
    report = runs[mode]["report"]
    assert report["total"] > 0
    assert report["distinct"] >= 1


def _rows(runs, mode) -> dict:
    return {tuple(row[:2]): row[2] for row in runs[mode]["profile"]["paths"]}


def test_placements_agree(runs):
    """Minimum-coverage placement counts exactly what exhaustive
    placement does; CBS sampling never exceeds it on any path."""
    exhaustive = _rows(runs, "exhaustive")
    assert _rows(runs, "mincov") == exhaustive
    cbs = _rows(runs, "cbs")
    assert cbs
    assert all(count <= exhaustive.get(key, 0) for key, count in cbs.items())
