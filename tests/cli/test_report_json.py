"""``repro-mini report --json`` — the machine-readable summary.

The JSON form is what CI consumes (the paths-smoke job asserts the
paths section advances), so it must mirror the table output: same
pipeline labels and values, a ``paths`` object exactly when the run
collected path profiles, and histogram presence tracking the
``--no-histograms`` flag.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

PROGRAM = """
class Counter {
  var n: int;
  def bump(): int { this.n = this.n + 1; return this.n; }
}
def main() {
  var c = new Counter();
  var t = 0;
  for (var i = 0; i < 40000; i = i + 1) { t = c.bump(); }
  print(t);
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.mini"
    path.write_text(PROGRAM)
    return str(path)


def _trace(program_file, tmp_path, *extra):
    trace = str(tmp_path / "trace.jsonl")
    assert main(["run", program_file, "--trace", trace, *extra]) == 0
    return trace


def _report_json(capsys, trace, *flags):
    assert main(["report", trace, "--json", *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_json_mirrors_table_pipeline(program_file, tmp_path, capsys):
    trace = _trace(program_file, tmp_path)
    capsys.readouterr()
    assert main(["report", trace]) == 0
    table = capsys.readouterr().out
    data = _report_json(capsys, trace)
    assert data["event_count"] > 0
    for label, value in data["pipeline"]:
        assert label in table
        assert str(value) in table


def test_json_paths_section_present_only_with_paths(
    program_file, tmp_path, capsys
):
    plain = _trace(program_file, tmp_path)
    capsys.readouterr()
    assert "paths" not in _report_json(capsys, plain)

    with_paths = _trace(program_file, tmp_path, "--paths", "exhaustive")
    capsys.readouterr()
    data = _report_json(capsys, with_paths)
    paths = data["paths"]
    assert set(paths) == {"total", "distinct", "increments", "windows"}
    assert paths["total"] > 0
    assert paths["distinct"] >= 1
    # The table output carries the same numbers.
    assert main(["report", with_paths]) == 0
    table = capsys.readouterr().out
    assert "path records" in table and str(paths["total"]) in table


def test_json_histograms_follow_flag(program_file, tmp_path, capsys):
    trace = _trace(program_file, tmp_path, "--profile", "cbs", "--stride", "1")
    capsys.readouterr()
    with_hists = _report_json(capsys, trace)
    without = _report_json(capsys, trace, "--no-histograms")
    assert with_hists["histograms"]
    assert "histograms" not in without


def test_json_is_valid_on_bad_file(tmp_path, capsys):
    bad = tmp_path / "junk.jsonl"
    bad.write_text("not a trace\n")
    with pytest.raises(SystemExit):
        main(["report", str(bad), "--json"])


def test_jit_section_carries_every_counter(program_file, tmp_path, capsys):
    """The tracer is an observation hook, so a traced run's calls all
    exit and the in-tier call counters read 0 — but the keys are what
    CI's jit-smoke reads, and they must all be there."""
    trace = _trace(program_file, tmp_path)
    capsys.readouterr()
    jit = _report_json(capsys, trace)["jit"]
    assert jit["compiles"] > 0
    assert {"leaf_calls", "direct_calls", "poly_calls", "unwinds"} <= set(jit)
    assert jit["entries"] + jit["osr_entries"] == (
        jit["deopts"] + jit["guard_exits"] + jit["call_exits"] + jit["return_exits"]
    )
