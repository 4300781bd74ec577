"""Deterministic synthetic publish traffic for the spine's ``fleet_mixed``.

:func:`build_workload` pre-encodes every synthetic publisher's frames
before a timed phase and returns the weight each fingerprint must end up
with.  ``benchmarks/perf/fleetwork.py`` replays the frames against a
live ``serve`` and checks that each fingerprint's merged weight equals
that figure exactly (the weights are integers, so there is no float
slack).  ``tests/fleet/test_bench.py`` pins the frames' bytes, so the
workload's input cannot drift unnoticed.
"""

from __future__ import annotations

import hashlib

from repro.fleet.protocol import encode_message, publish_message


def _fingerprint(index: int) -> str:
    return hashlib.sha256(f"fleet-bench-program-{index}".encode()).hexdigest()


def build_workload(
    publishers: int, batches: int, edges: int, programs: int, seed: int = 1
) -> tuple[list[list[bytes]], dict[str, int], list[str]]:
    """Pre-encode every publisher's frames before the timed phase.

    Returns ``(frames per publisher, expected weight per fingerprint,
    fingerprints)``.  Weights are small deterministic integers (a
    seeded affine walk, no RNG state to carry) so the zero-loss check
    is exact; edge keys cycle through a bounded pool per program so
    aggregates stay realistically sized instead of growing one key per
    published row.
    """
    fingerprints = [_fingerprint(i) for i in range(programs)]
    expected: dict[str, int] = {fp: 0 for fp in fingerprints}
    per_publisher: list[list[bytes]] = []
    state = seed & 0x7FFFFFFF
    for p in range(publishers):
        fingerprint = fingerprints[p % programs]
        run_id = f"bench-{p}"
        frames = []
        for b in range(batches):
            rows = []
            for e in range(edges):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                weight = 1 + state % 9
                key = (p * batches + b + e) % 211
                rows.append([f"M{key}.run", key % 17, f"M{(key * 7) % 211}.callee", weight])
                expected[fingerprint] += weight
            frames.append(
                encode_message(
                    publish_message(
                        fingerprint, rows, run_id=run_id, seq=b, epoch=0
                    )
                )
            )
        per_publisher.append(frames)
    return per_publisher, expected, fingerprints
