"""Hostile input at ``repro-mini report``: byte-level mutants of a trace.

Each mutant of a small committed trace, in either export format, must
either load and summarize (text and ``--json``) or be rejected with a
:class:`TraceFormatError`.  Any other exception — ``TypeError``,
``AttributeError``, ``KeyError`` — is a loader or summarizer bug that
``report`` would show as a traceback.  Mutants are seeded, so a failure
names a reproducible input.

The two files under ``data/`` are one CBS-sampled run of a small
counter loop (``Tracer()``, timer every 2 000 virtual-time units, a
``trace_scope`` and one span-carrying ``fleet_publish``), exported as
JSONL and as Chrome JSON.
"""

import json
import random
from pathlib import Path

import pytest

from repro.telemetry import TraceFormatError, load_trace, summarize_trace
from repro.telemetry.summary import summary_dict

DATA = Path(__file__).resolve().parent / "data"
SEED = 20261019
MUTANTS = 300

#: Fragments worth splicing in: JSON delimiters and literals, values of
#: the wrong type, and bytes that are not UTF-8 on their own.
FRAGMENTS = [
    b"{", b"}", b"[", b"]", b'"', b":", b",", b"\n", b"0", b"-1", b"1e999",
    b"null", b"true", b'"x"', b"[]", b"{}", b"NaN", b'"args": 5, ', b'"name": 1, ',
    b'"metrics": [], ', b'"value": "x", ', b"\xff", b"\xc3\xa9",
]


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One to three byte-level edits of ``data``."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        kind = rng.randrange(5)
        if kind == 0 and at < len(data):  # overwrite one byte
            data = data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
        elif kind == 1:  # delete a short span
            data = data[:at] + data[at + rng.randint(1, 12):]
        elif kind == 2:  # splice in a fragment
            data = data[:at] + rng.choice(FRAGMENTS) + data[at:]
        elif kind == 3:  # replace a short span with a fragment
            data = data[:at] + rng.choice(FRAGMENTS) + data[at + rng.randint(1, 6):]
        else:  # duplicate a span
            span = data[at:at + rng.randint(1, 60)]
            data = data[:at] + span + data[at:]
    return data


@pytest.mark.parametrize("name", ["small.jsonl", "small.chrome.json"])
def test_every_mutant_summarizes_or_is_rejected(tmp_path, name):
    original = (DATA / name).read_bytes()
    rng = random.Random(f"{SEED}:{name}")
    path = tmp_path / name
    outcomes = {"summarized": 0, "rejected": 0}
    for index in range(MUTANTS):
        path.write_bytes(mutate(rng, original))
        try:
            trace = load_trace(str(path))
            summarize_trace(trace)
            json.dumps(summary_dict(trace))
        except TraceFormatError:
            outcomes["rejected"] += 1
        except Exception as error:  # noqa: BLE001 - the point of the test
            pytest.fail(f"{name} mutant {index} raised {type(error).__name__}: {error}")
        else:
            outcomes["summarized"] += 1
    # The mutants reach both outcomes, not just the JSON parser's error.
    assert outcomes["summarized"] > 0 and outcomes["rejected"] > 0, outcomes
