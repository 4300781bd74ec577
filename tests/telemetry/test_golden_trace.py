"""Golden trace: one fixed traced run, pinned byte for byte.

jess (``tiny``) under the Jikes configuration with the JIT off (so no
host-time row reaches the metrics), sampled by CBS and recompiled by the
adaptive system, with every call traced, inside a ``trace_scope``.  The
timer fires every 10 000 virtual-time units instead of 100 000, so the
run's ten ticks open and close ten CBS windows and the adaptive system
recompiles and makes inlining decisions.  The
committed files are that run's JSONL export, its Chrome export, and the
``repro-mini report`` text and ``report --json`` of the JSONL file.  The
test regenerates each one and compares bytes, so any change to an
event's payload, lane, counter or report row shows up as a diff here.

After a deliberate change to the trace format, rewrite the files with::

    PYTHONPATH=src:. python -m tests.telemetry.test_golden_trace --write
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from repro.adaptive.controller import AdaptiveSystem
from repro.benchsuite.suite import get_benchmark
from repro.cli import main
from repro.frontend.codegen import compile_source
from repro.inlining.new_inliner import NewJikesInliner
from repro.profiling.cbs import CBSProfiler
from repro.telemetry import Tracer, export_chrome, export_jsonl, trace_scope
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter

GOLDEN = Path(__file__).resolve().parent / "golden"
TIMER_INTERVAL = 10_000
FILES = (
    "jess_tiny.jsonl",
    "jess_tiny.chrome.json",
    "jess_tiny.report.txt",
    "jess_tiny.report.json",
)


def traced_run() -> Tracer:
    program = compile_source(get_benchmark("jess").source("tiny"))
    vm = Interpreter(program, jikes_config(timer_interval=TIMER_INTERVAL))
    tracer = Tracer(trace_calls=True)
    vm.attach_telemetry(tracer)
    vm.attach_profiler(CBSProfiler(stride=3, samples_per_tick=8))
    AdaptiveSystem(program, NewJikesInliner(program)).install(vm)
    with trace_scope(tracer, "run", benchmark="jess", size="tiny"):
        vm.run()
    return tracer


def report(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", *argv]) == 0
    return out.getvalue()


def generate() -> dict[str, str]:
    """File name → the bytes (as text) this tree produces for it."""
    tracer = traced_run()
    with tempfile.TemporaryDirectory() as scratch:
        jsonl = Path(scratch, "trace.jsonl")
        chrome = Path(scratch, "trace.json")
        export_jsonl(tracer, str(jsonl))
        export_chrome(tracer, str(chrome))
        return {
            "jess_tiny.jsonl": jsonl.read_text(),
            "jess_tiny.chrome.json": chrome.read_text(),
            "jess_tiny.report.txt": report(str(jsonl)),
            "jess_tiny.report.json": report(str(jsonl), "--json"),
        }


@pytest.fixture(scope="module")
def generated():
    return generate()


@pytest.mark.parametrize("name", FILES)
def test_golden_file_matches(generated, name):
    expected = (GOLDEN / name).read_text()
    assert generated[name] == expected, f"{name} differs from tests/telemetry/golden"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN.mkdir(exist_ok=True)
    for name, text in generate().items():
        (GOLDEN / name).write_text(text)
        print(f"wrote {GOLDEN / name} ({len(text)} bytes)")
