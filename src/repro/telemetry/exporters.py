"""Trace exporters and the matching loader.

Two on-disk formats, both carrying the same event stream and final
metrics snapshot:

* **JSONL** — one JSON object per line: a header record, one record per
  event, and a trailing metrics record.  Grep/jq-friendly; the native
  format for ``repro-mini report``.
* **Chrome ``trace_event``** — the JSON-object format consumed by
  ``chrome://tracing`` and Perfetto: ``{"traceEvents": [...]}`` with
  window open/close and scopes as ``B``/``E`` duration pairs and
  everything else as instant events.  Timestamps are the VM's virtual
  time passed through as microseconds (the absolute unit is arbitrary;
  only relative placement matters).

``load_trace`` reads either format back into a uniform shape so the
report summarizer doesn't care which one it was handed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.telemetry.events import EVENT_TYPES

FORMATS = ("jsonl", "chrome")

JSONL_HEADER = {
    "record": "header",
    "format": "repro-telemetry",
    "version": 1,
    "clock": "virtual",
}

_PID = 1

#: Chrome flow-event phases for the cross-process publish spans.
_FLOW_PHASES = {"start": "s", "step": "t", "finish": "f"}


def jsonl_lines(tracer) -> list[str]:
    """The trace as JSONL lines (header, events, metrics footer), exactly
    as ``export_jsonl`` would write them.  Finalizes the tracer.

    The in-memory form exists so differential checkers (the fuzzer's
    event-stream invariant) can compare byte-for-byte without a
    round-trip through the filesystem.
    """
    tracer.finalize()
    lines = [json.dumps(JSONL_HEADER)]
    for event in tracer.events:
        record = {"record": "event", "name": event.name, "ts": event.ts}
        args = event.args()
        if args:
            record["args"] = args
        lines.append(json.dumps(record))
    lines.append(
        json.dumps({"record": "metrics", "metrics": tracer.metrics.snapshot()})
    )
    return lines


def export_jsonl(tracer, path: str) -> None:
    """Write the trace as JSON Lines (header, events, metrics footer)."""
    with open(path, "w") as handle:
        for line in jsonl_lines(tracer):
            handle.write(line + "\n")


def chrome_trace_events(tracer) -> list[dict]:
    """The trace as a list of Chrome ``trace_event`` dicts (metadata
    events first, then the event stream)."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro-mini virtual machine"},
        }
    ]
    for tid, lane_name in sorted({cls.lane for cls in EVENT_TYPES.values()}):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": lane_name},
            }
        )
    for event in tracer.events:
        tid = event.lane[0]
        record = {
            "name": event.name,
            "cat": "repro",
            "ph": event.phase,
            "ts": event.ts,
            "pid": _PID,
            "tid": tid,
            "args": event.args(),
        }
        if event.phase == "i":
            record["s"] = "t"  # thread-scoped instant
        events.append(record)
        # Span-carrying fleet events additionally emit a flow record:
        # the client's publish (flow-start) and the server's merge
        # (flow-finish) share a span id, so stitched traces draw one
        # arrow per delta from VM enqueue to aggregate merge.
        span_id = event.span_id
        if span_id is not None and event.flow in _FLOW_PHASES:
            flow = {
                "name": "fleet_delta",
                "cat": "fleet",
                "ph": _FLOW_PHASES[event.flow],
                "id": span_id,
                "ts": event.ts,
                "pid": _PID,
                "tid": tid,
                "args": {"trace_id": event.trace_id},
            }
            if event.flow == "finish":
                flow["bp"] = "e"  # bind to the enclosing slice
            events.append(flow)
    return events


def stitch_chrome_traces(*documents: dict, names=None) -> dict:
    """Merge Chrome trace documents from different processes into one.

    Each document gets its own ``pid`` (1, 2, ...) and, when ``names``
    is given, a rewritten ``process_name`` metadata record, so a
    client's trace and the fleet service's trace of the same publishes
    load as one timeline — the shared flow ids connect the
    ``fleet_publish`` and ``fleet_merge`` slices across processes.
    """
    merged: list[dict] = []
    for index, document in enumerate(documents):
        pid = index + 1
        name = names[index] if names else None
        for record in document.get("traceEvents", []):
            record = dict(record)
            record["pid"] = pid
            if (
                name is not None
                and record.get("ph") == "M"
                and record.get("name") == "process_name"
            ):
                record["args"] = {"name": name}
            merged.append(record)
    return {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro-mini telemetry (stitched)"},
    }


def export_chrome(tracer, path: str) -> None:
    """Write the trace in Chrome ``trace_event`` JSON-object format."""
    tracer.finalize()
    document = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual",
            "producer": "repro-mini telemetry",
            "metrics": tracer.metrics.snapshot(),
        },
    }
    with open(path, "w") as handle:
        json.dump(document, handle)


def export(tracer, path: str, format: str = "jsonl") -> None:
    if format == "jsonl":
        export_jsonl(tracer, path)
    elif format == "chrome":
        export_chrome(tracer, path)
    else:
        raise ValueError(f"unknown trace format {format!r} (choose from {FORMATS})")


# -- loading ------------------------------------------------------------------------


class TraceFormatError(ValueError):
    """The file is not a recognizable telemetry trace."""


@dataclass
class LoadedTrace:
    """Uniform in-memory view of a trace file, whichever format."""

    format: str
    events: list[dict] = field(default_factory=list)  # {"name", "ts", "args"}
    metrics: dict = field(default_factory=dict)

    def counts_by_event(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event["name"]] = counts.get(event["name"], 0) + 1
        return counts


def _event(record, default_ts=None) -> dict:
    """One event record in the uniform shape; a record without a ``ts``
    takes ``default_ts``, and is malformed when that is ``None``."""
    if not isinstance(record, dict):
        raise TraceFormatError("record is not a JSON object")
    for key in ("name", "ts") if default_ts is None else ("name",):
        if key not in record:
            raise TraceFormatError(f"event record missing {key!r} field")
    name, args = record["name"], record.get("args", {})
    if not isinstance(name, str):
        raise TraceFormatError("event 'name' is not a string")
    if not isinstance(args, dict):
        raise TraceFormatError(f"{name} event: 'args' is not a JSON object")
    if name == "window_close" and not all(
        isinstance(args.get(key, 0), (int, float)) for key in ("samples", "duration")
    ):
        raise TraceFormatError("window_close event with a non-numeric figure")
    return {"name": name, "ts": record.get("ts", default_ts), "args": args}


def _metrics(snapshot) -> dict:
    """A metrics snapshot whose figures the summarizer can read."""
    if not isinstance(snapshot, dict):
        raise TraceFormatError("metrics are not a JSON object")
    for name, metric in snapshot.items():
        if not isinstance(metric, dict) or not isinstance(metric.get("value", 0), (int, float)):
            raise TraceFormatError(f"metric {name!r} is malformed")
        if metric.get("type") == "histogram" and not (
            isinstance(metric.get("buckets"), dict) and "mean" in metric and "max" in metric
        ):
            raise TraceFormatError(f"histogram {name!r} is malformed")
    return snapshot


def _load_jsonl(lines: list[str]) -> LoadedTrace:
    trace = LoadedTrace(format="jsonl")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceFormatError(
                f"line {lineno}: truncated or corrupt record ({error.msg})"
            )
        except RecursionError:
            raise TraceFormatError(f"line {lineno}: record nested too deeply")
        if not isinstance(record, dict):
            raise TraceFormatError(f"line {lineno}: record is not a JSON object")
        try:
            kind = record.get("record")
            if kind == "event":
                trace.events.append(_event(record))
            elif kind == "metrics":
                trace.metrics = _metrics(record.get("metrics", {}))
        except TraceFormatError as error:
            raise TraceFormatError(f"line {lineno}: {error}")
    return trace


def _load_chrome(document: dict) -> LoadedTrace:
    trace = LoadedTrace(format="chrome")
    records = document["traceEvents"]
    if not isinstance(records, list):
        raise TraceFormatError("'traceEvents' is not a JSON array")
    for index, record in enumerate(records):
        if isinstance(record, dict) and record.get("ph") in ("M", "s", "t", "f"):
            continue  # metadata and flow decoration, not the event stream
        try:
            trace.events.append(_event(record, default_ts=0))
        except TraceFormatError as error:
            raise TraceFormatError(f"traceEvents[{index}]: {error}")
    other = document.get("otherData", {})
    if not isinstance(other, dict):
        raise TraceFormatError("'otherData' is not a JSON object")
    trace.metrics = _metrics(other.get("metrics", {}))
    return trace


def load_trace(path: str) -> LoadedTrace:
    """Read a trace file (auto-detecting JSONL vs. Chrome format).

    Anything that is not a trace the summarizer can read raises
    :class:`TraceFormatError` with a one-line message.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as error:
        raise TraceFormatError(f"cannot read trace {path}: {error}")
    stripped = text.lstrip()
    if not stripped:
        raise TraceFormatError(f"{path}: empty file")
    if not stripped.startswith("{"):
        raise TraceFormatError(f"{path}: unrecognized trace format")
    try:
        first = json.loads(stripped.splitlines()[0])
    except (json.JSONDecodeError, RecursionError):
        first = None
    try:
        if isinstance(first, dict) and first.get("format") == "repro-telemetry":
            return _load_jsonl(text.splitlines())
        try:
            document = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as error:
            raise TraceFormatError(f"not valid JSON ({error})")
        if "traceEvents" not in document:
            raise TraceFormatError("JSON object without 'traceEvents'")
        return _load_chrome(document)
    except TraceFormatError as error:
        raise TraceFormatError(f"{path}: {error}")
