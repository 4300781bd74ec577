"""The host-counter table is the only list of fusion, IC and JIT
metrics: every row is documented, exists on a fresh VM, and reaches the
tracer, ``report --json`` and ``run --stats`` with nothing else edited.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.cli import main
from repro.frontend.codegen import compile_source
from repro.telemetry.hostcounters import CACHE, HOST_COUNTERS, TIERS, VM
from repro.telemetry.tracer import Tracer
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"

#: A virtual call in a loop hot enough to compile: every tier runs.
PROGRAM = """
class Counter {
  var n: int;
  def bump(): int { this.n = this.n + 1; return this.n; }
}
def main() {
  var c = new Counter();
  var t = 0;
  for (var i = 0; i < 4000; i = i + 1) { t = c.bump(); }
  print(t);
}
"""


def test_every_row_is_documented():
    text = DOC.read_text()
    section = text.split("## Metric names", 1)[1].split("\n## ", 1)[0]
    for row in HOST_COUNTERS:
        assert f"`{row.name}`" in section, row.name


def test_every_attribute_row_exists_on_a_fresh_interpreter():
    vm = Interpreter(compile_source(PROGRAM), jikes_config())
    for row in HOST_COUNTERS:
        if row.source == VM:
            assert getattr(vm, row.attr) == 0, row.name
        else:
            assert row.source == CACHE, row.name
            assert isinstance(getattr(vm.code_cache, row.attr), int), row.name


def test_every_row_reaches_every_consumer(tmp_path, capsys):
    program = compile_source(PROGRAM)
    vm = Interpreter(program, jikes_config(jit=True))
    tracer = Tracer()
    vm.attach_telemetry(tracer)
    vm.run()
    assert vm.jit_compiles > 0
    snapshot = tracer.metrics.snapshot()
    for row in HOST_COUNTERS:
        assert snapshot[row.name]["type"] == row.kind, row.name
        assert tracer.metrics.get(row.name).help == row.help, row.name

    source = tmp_path / "prog.mini"
    source.write_text(PROGRAM)
    trace = str(tmp_path / "trace.jsonl")
    argv = ["run", str(source), "--trace", trace, "--stats"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    stats = {
        tier: set(re.findall(r"(\w+)=", line))
        for line in err.splitlines()
        for tier in TIERS
        if line.startswith(f"-- {tier}: ")
    }
    assert main(["report", trace, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for row in HOST_COUNTERS:
        assert row.suffix in report[row.tier], row.name
        assert row.suffix in stats[row.tier], row.name
