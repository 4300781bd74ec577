"""Per-run telemetry summaries (the ``repro-mini report`` backend).

Consumes a :class:`~repro.telemetry.exporters.LoadedTrace` (either
export format) and renders the window/sample/yieldpoint story of the
run as fixed-width tables.  Aggregates prefer the embedded metrics
snapshot and fall back to recomputing from the event stream, so a
trace stripped of its footer still reports.
"""

from __future__ import annotations

from repro.telemetry.events import EVENT_TYPES
from repro.telemetry.exporters import LoadedTrace
from repro.telemetry.hostcounters import TIERS, shown, tier_rows


def _render_table(headers, rows, title=None):
    # Imported lazily: repro.harness.runner imports repro.telemetry, so
    # a module-level import here would create an import cycle.
    from repro.harness.report import render_table

    return render_table(headers, rows, title)


def _metric_value(trace: LoadedTrace, name: str):
    metric = trace.metrics.get(name)
    if metric is None:
        return None
    return metric.get("value")


def _host_tiers(trace: LoadedTrace) -> dict:
    """``{tier: [(row, value), ...]}`` for each host-counter tier that
    ran, i.e. has a non-zero row (every traced run registers them all)."""
    tiers = {}
    for tier in TIERS:
        values = [(row, _metric_value(trace, row.name) or 0) for row in tier_rows(tier)]
        if any(value for _, value in values):
            tiers[tier] = values
    return tiers


def pipeline_rows(trace: LoadedTrace) -> list[list[object]]:
    """(quantity, value) rows for the headline summary table."""
    counts = trace.counts_by_event()
    yp_kinds: dict[str, int] = {}
    transitions: dict[str, int] = {}
    for event in trace.events:
        if event["name"] == "yieldpoint":
            args = event["args"]
            kind = str(args.get("kind", "?"))
            yp_kinds[kind] = yp_kinds.get(kind, 0) + 1
            arrow = f"{args.get('from', '?')} -> {args.get('to', '?')}"
            transitions[arrow] = transitions.get(arrow, 0) + 1

    def metric_or_count(event_name: str) -> int:
        """The event's counter, or its event count in a trace without one."""
        value = _metric_value(trace, EVENT_TYPES[event_name].counter[0])
        return value if value is not None else counts.get(event_name, 0)

    rows: list[list[object]] = [
        ["timer ticks", metric_or_count("timer_tick")],
        ["yieldpoints taken", metric_or_count("yieldpoint")],
    ]
    for kind in ("prologue", "epilogue", "backedge"):
        if kind in yp_kinds:
            rows.append([f"  {kind}", yp_kinds[kind]])
    for arrow in sorted(transitions):
        rows.append([f"  {arrow}", transitions[arrow]])
    rows += [
        ["windows opened", metric_or_count("window_open")],
        ["windows closed", metric_or_count("window_close")],
        ["samples taken", metric_or_count("sample")],
    ]
    calls = _metric_value(trace, EVENT_TYPES["call"].counter[0])
    if calls:
        rows.append(["calls traced", calls])
    recompiles = metric_or_count("recompile")
    if recompiles:
        rows.append(["recompilations", recompiles])
    accepted = _metric_value(trace, "inline.accepted") or 0
    rejected = _metric_value(trace, "inline.rejected") or 0
    if accepted or rejected or "inline_decision" in counts:
        rows.append(["inline decisions accepted", accepted])
        rows.append(["inline decisions rejected", rejected])
    for rows_of_tier in _host_tiers(trace).values():
        for row, value in rows_of_tier:
            rows.append([f"{row.tier} {row.suffix}", shown(row, value)])
    publishes = metric_or_count("fleet_publish")
    if publishes:
        rows.append(["fleet batches published", publishes])
        sent = _metric_value(trace, "fleet.batches_sent")
        if sent is not None:
            rows.append(["fleet batches delivered", sent])
            rows.append(
                ["fleet batches dropped", _metric_value(trace, "fleet.batches_dropped") or 0]
            )
            rows.append(["fleet edges delivered", _metric_value(trace, "fleet.edges_sent") or 0])
        if _metric_value(trace, "fleet.server_dead"):
            rows.append(["fleet server dead", 1])
    merges = metric_or_count("fleet_merge")
    if merges:
        rows.append(["fleet deltas merged", merges])
    warm_starts = metric_or_count("warm_start")
    if warm_starts:
        rows.append(["warm starts", warm_starts])
    return rows


def window_rows(trace: LoadedTrace) -> list[list[object]]:
    """Per-window-statistic rows recomputed from window_close events."""
    samples = []
    durations = []
    for event in trace.events:
        if event["name"] == "window_close":
            args = event["args"]
            samples.append(args.get("samples", 0))
            durations.append(args.get("duration", 0))
    if not samples:
        return []

    def stats(values: list) -> tuple:
        return (min(values), sum(values) / len(values), max(values))

    rows = []
    for label, values in (("samples/window", samples), ("window duration", durations)):
        low, mean, high = stats(values)
        rows.append([label, low, round(mean, 2), high])
    return rows


def histogram_tables(trace: LoadedTrace) -> list[str]:
    tables = []
    for name in sorted(trace.metrics):
        snapshot = trace.metrics[name]
        if snapshot.get("type") != "histogram" or not snapshot.get("count"):
            continue
        # Bucket counts are cumulative (Prometheus convention, same as
        # /metrics): each row counts observations at or below its bound,
        # and the +Inf row equals the total count.
        rows = [[bucket, count] for bucket, count in snapshot["buckets"].items()]
        tables.append(
            _render_table(
                ["bucket", "cum count"],
                rows,
                title=f"{name} (mean={snapshot['mean']}, max={snapshot['max']})",
            )
        )
    return tables


def summary_dict(trace: LoadedTrace, histograms: bool = True) -> dict:
    """Machine-readable mirror of :func:`summarize_trace`.

    Backs ``repro-mini report --json``: the ``pipeline`` rows are the
    exact (label, value) pairs the text table renders (sub-rows keep
    their indentation so the mirror is lossless), and one object per
    host-counter tier that ran (``fusion``, ``ic``, ``jit``)
    repeats every row's figure keyed by its suffix, so scripts can
    assert on them without parsing table text.
    """
    data: dict = {
        "format": trace.format,
        "event_count": len(trace.events),
        "pipeline": [[label, value] for label, value in pipeline_rows(trace)],
        "windows": [list(row) for row in window_rows(trace)],
    }
    for tier, rows_of_tier in _host_tiers(trace).items():
        data[tier] = {row.suffix: value for row, value in rows_of_tier}
    if histograms:
        data["histograms"] = {
            name: snapshot
            for name, snapshot in sorted(trace.metrics.items())
            if snapshot.get("type") == "histogram" and snapshot.get("count")
        }
    return data


def summarize_trace(trace: LoadedTrace, histograms: bool = True) -> str:
    """The full ``repro-mini report`` text for one loaded trace."""
    parts = [
        _render_table(
            ["quantity", "value"],
            pipeline_rows(trace),
            title=f"Telemetry summary ({trace.format} trace, {len(trace.events)} events)",
        )
    ]
    windows = window_rows(trace)
    if windows:
        parts.append(
            _render_table(["statistic", "min", "mean", "max"], windows, title="CBS windows")
        )
    if histograms:
        parts.extend(histogram_tables(trace))
    return "\n\n".join(parts)
