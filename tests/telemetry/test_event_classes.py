"""An event kind is one class: its payload, counter and lane are read
off the class by the tracer, the exporters, ``report`` and the docs."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.telemetry import EVENT_TYPES, Event, FleetMerge, FleetPublish, Tracer
from repro.telemetry.exporters import chrome_trace_events

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"

#: The two kinds that render their payload themselves.
CUSTOM_ARGS = {"yieldpoint": ["kind", "from", "to"], "scope_begin": ["label", "…"]}


def doc_rows() -> dict[str, list[str]]:
    section = DOC.read_text().split("## Event taxonomy", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 6 and re.fullmatch(r"`\w+`", cells[0]):
            rows[cells[0].strip("`")] = cells
    return rows


def test_every_kind_is_a_subclass_with_no_init_of_its_own():
    assert list(EVENT_TYPES.values()) == Event.__subclasses__()
    for cls in EVENT_TYPES.values():
        assert "__init__" not in vars(cls), cls.__name__
        assert set(vars(cls)) >= {"__slots__", "name"}, cls.__name__


@pytest.mark.parametrize("name", sorted(EVENT_TYPES))
def test_payload_is_the_slots_in_constructor_order(name):
    cls = EVENT_TYPES[name]
    values = list(range(100, 100 + len(cls.__slots__)))
    event = cls(7, *values)
    assert event.ts == 7
    assert [getattr(event, field) for field in cls.__slots__] == values
    if name not in CUSTOM_ARGS:
        assert event.args() == dict(zip(cls.__slots__, values))
    with pytest.raises(TypeError):
        cls(7, *values, "one too many")


def test_span_coordinates_appear_only_with_a_span():
    assert FleetPublish(1, 2, 3, 4.0).args() == {"seq": 2, "edges": 3, "weight": 4.0}
    spanned = FleetMerge(1, "ab", 3, 2, 5.0, "run", "run:2").args()
    assert list(spanned) == [
        "fingerprint", "edges", "runs", "total_weight", "trace_id", "span_id"
    ]
    assert spanned["span_id"] == "run:2"


def test_tracer_registers_each_declared_counter_at_zero():
    snapshot = Tracer().metrics.snapshot()
    for cls in EVENT_TYPES.values():
        if cls.counter is not None:
            name, help_text = cls.counter
            assert snapshot[name] == {"type": "counter", "value": 0}, name
            assert help_text


def test_chrome_lanes_come_from_the_classes():
    tracer = Tracer()
    tracer.on_tick(5, 1)
    tracer.on_window_open(6)
    tracer.on_warm_start(7, 1, 2, 3.0)
    records = chrome_trace_events(tracer)
    threads = {r["tid"]: r["args"]["name"] for r in records if r["name"] == "thread_name"}
    assert threads == dict(sorted({cls.lane for cls in EVENT_TYPES.values()}))
    lanes = {r["name"]: r["tid"] for r in records if r["ph"] != "M"}
    assert lanes == {"timer_tick": 1, "window_open": 2, "warm_start": 5}


def test_docs_event_table_matches_the_classes():
    rows = doc_rows()
    assert sorted(rows) == sorted(EVENT_TYPES)
    for name, cls in EVENT_TYPES.items():
        _, _, _, payload, lane, counter = rows[name]
        fields = CUSTOM_ARGS.get(name, list(cls.__slots__))
        assert [field.strip("`") for field in payload.split(", ")] == fields, name
        assert lane == cls.lane[1], name
        if cls.counter is None:
            assert counter.startswith("—"), name
        else:
            assert counter == f"`{cls.counter[0]}`", name
