"""The synthetic publish traffic behind the perf spine's ``fleet_mixed``:
deterministic, fully accounted, and pinned to the byte."""

import hashlib

from repro.fleet.bench import build_workload


def test_build_workload_is_deterministic_and_accounted():
    frames_a, expected_a, fps_a = build_workload(6, 2, 4, 3)
    frames_b, expected_b, fps_b = build_workload(6, 2, 4, 3)
    assert frames_a == frames_b  # byte-identical pre-encoded frames
    assert expected_a == expected_b
    assert fps_a == fps_b
    assert len(frames_a) == 6
    assert all(len(frames) == 2 for frames in frames_a)
    # Every weight is integral and every fingerprint is accounted.
    assert all(isinstance(w, int) and w > 0 for w in expected_a.values())
    assert set(expected_a) == set(fps_a)
    assert len(fps_a) == 3


def test_build_workload_bytes_are_pinned():
    """The measurement spine's ``fleet_mixed`` replays exactly this call
    (``benchmarks/perf/fleetwork.py``, its default seed): a change to
    the frames is a change to that workload's input."""
    frames, expected, _ = build_workload(
        publishers=200, batches=4, edges=20, programs=16, seed=20250929
    )
    assert hashlib.sha256(b"".join(frames[0])).hexdigest() == (
        "e739be32e099b4dcced9a6ce1b7f5fa3d4f2df0da35b0b9eb023c4137c98c050"
    )
    assert sum(expected.values()) == 79830
