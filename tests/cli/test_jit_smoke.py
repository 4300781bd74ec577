"""The template JIT seen through the CLI: ``run --stats`` and ``report
--json`` on benchsuite programs, JIT on against ``--no-jit``.

The library-level identity suites (tests/vm/test_jit_deopt.py) compare
VM state; these read the user-facing formats the host-counter table
renders, on the ``small`` inputs where every exit class shows up.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.benchsuite.suite import get_benchmark
from repro.cli import main

RUN_LINE = re.compile(r"^-- steps=\d+ vtime=\d+ calls=\d+ ticks=\d+", re.M)


def _source(tmp_path, name):
    path = tmp_path / f"{name}.mini"
    path.write_text(get_benchmark(name).source("small"))
    return str(path)


def test_jit_and_no_jit_save_identical_cbs_profiles(tmp_path, capsys):
    """With a CBS profiler riding, program output and the saved profile
    are byte-identical with the JIT on and off, and the JIT run's report
    accounts every entry to an exit."""
    jess = _source(tmp_path, "jess")
    riders = ["--profile", "cbs", "--seed", "7"]
    jit_profile, plain_profile = tmp_path / "jit.json", tmp_path / "plain.json"
    trace = str(tmp_path / "jit.jsonl")
    argv = ["run", jess, *riders, "--save-profile", str(jit_profile), "--trace", trace]
    assert main(argv) == 0
    jit_out = capsys.readouterr().out
    argv = ["run", jess, *riders, "--save-profile", str(plain_profile), "--no-jit"]
    assert main(argv) == 0
    assert capsys.readouterr().out == jit_out
    assert jit_profile.read_bytes() == plain_profile.read_bytes()

    assert main(["report", trace, "--json", "--no-histograms"]) == 0
    jit = json.loads(capsys.readouterr().out)["jit"]
    assert jit["compiles"] > 0
    entries = jit["entries"] + jit["osr_entries"]
    exits = jit["deopts"] + jit["guard_exits"] + jit["call_exits"] + jit["return_exits"]
    assert entries > 0 and entries == exits


def _stats(text, prefix):
    line = next(l for l in text.splitlines() if l.startswith(prefix))
    return {key: int(value) for key, value in re.findall(r"(\w+)=(\d+)\b(?!\.)", line)}


@pytest.mark.parametrize(
    "name, in_tier",
    [("jess", "poly_calls"), ("mtrt", "direct_calls")],
)
def test_stats_show_calls_kept_in_generated_code(tmp_path, capsys, name, in_tier):
    """jess's third receiver class goes through a site's polymorphic
    tail; mtrt's compiled callers enter compiled callees directly.  The
    run stays the interpreter's to the step and the tick, and promotion
    is hotness-driven: never more compiles than methods executed."""
    program = _source(tmp_path, name)
    assert main(["run", program, "--stats"]) == 0
    jit = capsys.readouterr()
    assert main(["run", program, "--stats", "--no-jit"]) == 0
    plain = capsys.readouterr()
    assert jit.out == plain.out
    assert RUN_LINE.search(jit.err).group(0) == RUN_LINE.search(plain.err).group(0)
    executed = _stats(jit.err, "-- steps=")["methods"]
    counts = _stats(jit.err, "-- jit: compiles=")
    assert 0 < counts["compiles"] <= executed
    assert counts[in_tier] > 0
