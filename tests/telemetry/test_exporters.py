"""Exporter formats: Chrome trace_event schema validity, JSONL round
trip, auto-detection, and the report summarizer."""

import json

import pytest

from repro.frontend.codegen import compile_source
from repro.profiling.cbs import CBSProfiler
from repro.telemetry import (
    Tracer,
    TraceFormatError,
    export_chrome,
    export_jsonl,
    load_trace,
    summarize_trace,
)
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter

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

#: Phases defined by the Chrome trace_event format spec (the subset a
#: validating consumer may encounter from our exporter).
ALLOWED_PHASES = {"B", "E", "i", "M", "C", "X"}


@pytest.fixture(scope="module")
def traced_run():
    program = compile_source(PROGRAM)
    vm = Interpreter(program, jikes_config())
    vm.attach_profiler(CBSProfiler(stride=3, samples_per_tick=8))
    tracer = Tracer()
    vm.attach_telemetry(tracer)
    vm.run()
    return tracer


def test_chrome_trace_validates_against_schema(traced_run, tmp_path):
    """Structural validation of the trace_event JSON-object format:
    required top-level key, required per-event fields, known phases,
    numeric non-negative timestamps, JSON-able args."""
    path = tmp_path / "trace.json"
    export_chrome(traced_run, str(path))
    document = json.loads(path.read_text())

    assert isinstance(document, dict)
    assert isinstance(document["traceEvents"], list)
    assert document["traceEvents"], "trace must not be empty"
    for event in document["traceEvents"]:
        assert isinstance(event["name"], str) and event["name"]
        assert event["ph"] in ALLOWED_PHASES
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] != "M":
            assert isinstance(event["ts"], (int, float))
            assert event["ts"] >= 0
        assert isinstance(event.get("args", {}), dict)


def test_chrome_duration_events_are_balanced_per_thread(traced_run, tmp_path):
    path = tmp_path / "trace.json"
    export_chrome(traced_run, str(path))
    document = json.loads(path.read_text())
    stacks: dict[int, int] = {}
    for event in document["traceEvents"]:
        tid = event["tid"]
        if event["ph"] == "B":
            stacks[tid] = stacks.get(tid, 0) + 1
        elif event["ph"] == "E":
            stacks[tid] = stacks.get(tid, 0) - 1
            assert stacks[tid] >= 0, "E without matching B"
    assert all(depth == 0 for depth in stacks.values())


def test_chrome_trace_embeds_metrics(traced_run, tmp_path):
    path = tmp_path / "trace.json"
    export_chrome(traced_run, str(path))
    document = json.loads(path.read_text())
    metrics = document["otherData"]["metrics"]
    assert metrics["vm.ticks"]["value"] > 0
    assert metrics["cbs.samples_per_window"]["type"] == "histogram"


def test_jsonl_round_trip(traced_run, tmp_path):
    path = tmp_path / "trace.jsonl"
    export_jsonl(traced_run, str(path))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {
        "record": "header",
        "format": "repro-telemetry",
        "version": 1,
        "clock": "virtual",
    }
    assert json.loads(lines[-1])["record"] == "metrics"

    trace = load_trace(str(path))
    assert trace.format == "jsonl"
    assert len(trace.events) == len(traced_run.events)
    assert trace.metrics["samples.taken"]["value"] > 0


def test_load_trace_autodetects_chrome(traced_run, tmp_path):
    path = tmp_path / "trace.json"
    export_chrome(traced_run, str(path))
    trace = load_trace(str(path))
    assert trace.format == "chrome"
    # Metadata events are stripped; the event stream is preserved.
    assert len(trace.events) == len(traced_run.events)


def test_both_formats_summarize_identically(traced_run, tmp_path):
    jsonl_path = tmp_path / "t.jsonl"
    chrome_path = tmp_path / "t.json"
    export_jsonl(traced_run, str(jsonl_path))
    export_chrome(traced_run, str(chrome_path))
    a = load_trace(str(jsonl_path))
    b = load_trace(str(chrome_path))
    assert a.counts_by_event() == b.counts_by_event()
    # Same tables, ignoring the title/underline (they name the format).
    summary_a = summarize_trace(a).splitlines()[2:]
    summary_b = summarize_trace(b).splitlines()[2:]
    assert summary_a == summary_b


def test_summary_mentions_windows_samples_yieldpoints(traced_run, tmp_path):
    path = tmp_path / "t.jsonl"
    export_jsonl(traced_run, str(path))
    summary = summarize_trace(load_trace(str(path)))
    for needle in (
        "timer ticks",
        "yieldpoints taken",
        "windows opened",
        "samples taken",
        "samples/window",
        "window duration",
    ):
        assert needle in summary


def test_load_trace_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a trace\n")
    with pytest.raises(TraceFormatError):
        load_trace(str(bad))
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(TraceFormatError):
        load_trace(str(empty))
    missing_key = tmp_path / "nokey.json"
    missing_key.write_text('{"foo": 1}')
    with pytest.raises(TraceFormatError):
        load_trace(str(missing_key))
    not_utf8 = tmp_path / "bytes.json"
    not_utf8.write_bytes(b'{"traceEvents": ["\xff"]}')
    with pytest.raises(TraceFormatError, match="cannot read"):
        load_trace(str(not_utf8))


JSONL_HEAD = '{"record": "header", "format": "repro-telemetry", "version": 1}\n'


@pytest.mark.parametrize(
    "text",
    [
        '{"traceEvents": 5}',
        '{"traceEvents": [7]}',
        '{"traceEvents": [{"ph": "i", "ts": 1}]}',
        '{"traceEvents": [{"name": 3, "ph": "i"}]}',
        '{"traceEvents": [{"name": "sample", "ph": "i", "args": 5}]}',
        '{"traceEvents": [], "otherData": 5}',
        '{"traceEvents": [], "otherData": {"metrics": 5}}',
        '{"traceEvents": [], "otherData": {"metrics": {"vm.ticks": 5}}}',
        JSONL_HEAD + '{"record": "event", "name": "sample", "ts": 1, "args": [1]}\n',
        JSONL_HEAD + '{"record": "metrics", "metrics": [1]}\n',
        JSONL_HEAD + '{"record": "metrics", "metrics": {"vm.ticks": {"value": "x"}}}\n',
        JSONL_HEAD + '{"record": "metrics", "metrics": {"h": {"type": "histogram"}}}\n',
        JSONL_HEAD + '{"record": "event", "name": "window_close", "ts": 1, '
        '"args": {"samples": "8"}}\n',
    ],
    ids=[
        "chrome-events-not-a-list",
        "chrome-record-not-an-object",
        "chrome-record-without-name",
        "chrome-name-not-a-string",
        "chrome-args-not-an-object",
        "chrome-otherdata-not-an-object",
        "chrome-metrics-not-an-object",
        "chrome-metric-not-an-object",
        "jsonl-args-not-an-object",
        "jsonl-metrics-not-an-object",
        "jsonl-metric-value-not-a-number",
        "jsonl-histogram-without-buckets",
        "jsonl-window-figure-not-a-number",
    ],
)
def test_load_trace_rejects_malformed_records(tmp_path, capsys, text):
    """Each shape used to escape ``report`` as a Python traceback; now
    the loader rejects it and ``report`` exits nonzero with one line."""
    from repro.cli import main

    path = tmp_path / "bad.trace"
    path.write_text(text)
    with pytest.raises(TraceFormatError):
        load_trace(str(path))
    with pytest.raises(SystemExit) as exit_info:
        main(["report", str(path)])
    message = str(exit_info.value.code)
    assert message.startswith(str(path)) and "\n" not in message


OLD_SHARDED_SERVE_TRACE = """\
{"record": "header", "format": "repro-telemetry", "version": 1, "clock": "virtual"}
{"record": "event", "name": "fleet_merge", "ts": 5, "args": {"fingerprint": "ab", "edges": 2, "runs": 1, "total_weight": 3.0}}
{"record": "event", "name": "fleet_shard", "ts": 9, "args": {"shard": 1, "queue_depth": 0, "coalesce_ratio": 3.25, "busy_rejections": 1, "merges": 5, "routed": 8, "programs": 2}}
"""


def test_old_sharded_serve_trace_still_loads(tmp_path, capsys):
    """``serve --workers N --trace`` used to append ``fleet_shard``
    events; the event type is gone, but such a file still loads and
    reports, with those events ignored."""
    from repro.cli import main
    from repro.telemetry import EVENT_TYPES

    assert "fleet_shard" not in EVENT_TYPES
    path = tmp_path / "old-serve.jsonl"
    path.write_text(OLD_SHARDED_SERVE_TRACE)
    trace = load_trace(str(path))
    assert [event["name"] for event in trace.events] == ["fleet_merge", "fleet_shard"]

    assert main(["report", str(path)]) == 0
    text = capsys.readouterr().out
    assert "fleet deltas merged" in text
    assert "fleet shards" not in text

    assert main(["report", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "fleet_shards" not in data
    assert ["fleet deltas merged", 1] in data["pipeline"]
