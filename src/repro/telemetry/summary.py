"""Per-run telemetry summaries (the ``repro-mini report`` backend).

Consumes a :class:`~repro.telemetry.exporters.LoadedTrace` (either
export format) and renders the window/sample/yieldpoint story of the
run as fixed-width tables.  Aggregates prefer the embedded metrics
snapshot and fall back to recomputing from the event stream, so a
trace stripped of its footer still reports.
"""

from __future__ import annotations

from repro.telemetry.exporters import LoadedTrace


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


def _count(trace: LoadedTrace, event_name: str, counts: dict) -> int:
    return counts.get(event_name, 0)


def pipeline_rows(trace: LoadedTrace) -> list[list[object]]:
    """(quantity, value) rows for the headline summary table."""
    counts = trace.counts_by_event()
    yp_kinds: dict[str, int] = {}
    transitions: dict[str, int] = {}
    for event in trace.events:
        if event["name"] == "yieldpoint":
            args = event["args"]
            kind = args.get("kind", "?")
            yp_kinds[kind] = yp_kinds.get(kind, 0) + 1
            arrow = f"{args.get('from', '?')} -> {args.get('to', '?')}"
            transitions[arrow] = transitions.get(arrow, 0) + 1

    def metric_or_count(metric_name: str, event_name: str) -> int:
        value = _metric_value(trace, metric_name)
        return value if value is not None else _count(trace, event_name, counts)

    rows: list[list[object]] = [
        ["timer ticks", metric_or_count("vm.ticks", "timer_tick")],
        ["yieldpoints taken", metric_or_count("yieldpoints.taken", "yieldpoint")],
    ]
    for kind in ("prologue", "epilogue", "backedge"):
        if kind in yp_kinds:
            rows.append([f"  {kind}", yp_kinds[kind]])
    for arrow in sorted(transitions):
        rows.append([f"  {arrow}", transitions[arrow]])
    rows += [
        ["windows opened", metric_or_count("cbs.windows_opened", "window_open")],
        ["windows closed", metric_or_count("cbs.windows_closed", "window_close")],
        ["samples taken", metric_or_count("samples.taken", "sample")],
    ]
    calls = _metric_value(trace, "calls.traced")
    if calls:
        rows.append(["calls traced", calls])
    recompiles = metric_or_count("adaptive.recompilations", "recompile")
    if recompiles:
        rows.append(["recompilations", recompiles])
    accepted = _metric_value(trace, "inline.accepted") or 0
    rejected = _metric_value(trace, "inline.rejected") or 0
    if accepted or rejected or "inline_decision" in counts:
        rows.append(["inline decisions accepted", accepted])
        rows.append(["inline decisions rejected", rejected])
    fused = _metric_value(trace, "fusion.dispatches")
    if fused:
        rows.append(["fused dispatches", fused])
        rows.append(["fusion deopts", _metric_value(trace, "fusion.deopts") or 0])
        rows.append(["fusion sites", _metric_value(trace, "fusion.sites") or 0])
    ic_hits = _metric_value(trace, "ic.hits") or 0
    ic_misses = _metric_value(trace, "ic.misses") or 0
    if ic_hits or ic_misses:
        rows.append(["ic hits", ic_hits])
        rows.append(["ic misses", ic_misses])
        rows.append(["ic transitions", _metric_value(trace, "ic.transitions") or 0])
        rows.append(["ic sites", _metric_value(trace, "ic.sites") or 0])
        megamorphic = _metric_value(trace, "ic.megamorphic_sites")
        if megamorphic:
            rows.append(["ic megamorphic sites", megamorphic])
    jit_compiles = _metric_value(trace, "jit.compiles")
    if jit_compiles:
        rows.append(["jit compiles", jit_compiles])
        rows.append(
            [
                "jit methods compiled/eligible",
                f"{_metric_value(trace, 'jit.methods_compiled') or 0}"
                f"/{_metric_value(trace, 'jit.methods_eligible') or 0}",
            ]
        )
        rows.append(
            ["jit compile_s", f"{_metric_value(trace, 'jit.compile_s') or 0:.4f}"]
        )
        rows.append(
            [
                "jit entries",
                (_metric_value(trace, "jit.entries") or 0)
                + (_metric_value(trace, "jit.osr_entries") or 0),
            ]
        )
        rows.append(["jit deopts", _metric_value(trace, "jit.deopts") or 0])
        rows.append(
            ["jit guard exits", _metric_value(trace, "jit.guard_exits") or 0]
        )
    paths_total = _metric_value(trace, "paths.total")
    if paths_total:
        rows.append(["path records", paths_total])
        rows.append(["distinct paths", _metric_value(trace, "paths.distinct") or 0])
        rows.append(
            ["path edge increments", _metric_value(trace, "paths.increments") or 0]
        )
        windows = _metric_value(trace, "paths.windows")
        if windows:
            rows.append(["path windows", windows])
    publishes = metric_or_count("fleet.publishes", "fleet_publish")
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
    merges = metric_or_count("fleet.merges", "fleet_merge")
    if merges:
        rows.append(["fleet deltas merged", merges])
    warm_starts = metric_or_count("fleet.warm_starts", "warm_start")
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
    their indentation so the mirror is lossless), and the dedicated
    ``paths``/``jit`` objects repeat the Ball-Larus and template-JIT
    figures under stable keys so CI can assert on them without parsing
    table text.
    """
    data: dict = {
        "format": trace.format,
        "event_count": len(trace.events),
        "pipeline": [[label, value] for label, value in pipeline_rows(trace)],
        "windows": [list(row) for row in window_rows(trace)],
    }
    # Truthy gate, matching the table: the counter exists (at zero) on
    # every traced run; only a run that recorded paths gets the section.
    paths_total = _metric_value(trace, "paths.total")
    if paths_total:
        data["paths"] = {
            "total": paths_total,
            "distinct": _metric_value(trace, "paths.distinct") or 0,
            "increments": _metric_value(trace, "paths.increments") or 0,
            "windows": _metric_value(trace, "paths.windows") or 0,
        }
    jit_compiles = _metric_value(trace, "jit.compiles")
    if jit_compiles:
        data["jit"] = {
            "compiles": jit_compiles,
            "entries": _metric_value(trace, "jit.entries") or 0,
            "osr_entries": _metric_value(trace, "jit.osr_entries") or 0,
            "deopts": _metric_value(trace, "jit.deopts") or 0,
            "guard_exits": _metric_value(trace, "jit.guard_exits") or 0,
            "call_exits": _metric_value(trace, "jit.call_exits") or 0,
            "return_exits": _metric_value(trace, "jit.return_exits") or 0,
            "leaf_calls": _metric_value(trace, "jit.leaf_calls") or 0,
            "direct_calls": _metric_value(trace, "jit.direct_calls") or 0,
            "unwinds": _metric_value(trace, "jit.unwinds") or 0,
            "poly_calls": _metric_value(trace, "jit.poly_calls") or 0,
            "methods_compiled": _metric_value(trace, "jit.methods_compiled") or 0,
            "methods_eligible": _metric_value(trace, "jit.methods_eligible") or 0,
            "compile_s": _metric_value(trace, "jit.compile_s") or 0,
        }
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
