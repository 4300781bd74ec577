"""Fleet load-harness tests: workload determinism, gates, a tiny run."""

import hashlib

import pytest

from repro.fleet.bench import (
    BASELINE_VERSION,
    build_workload,
    check_against_baseline,
    collect_summary,
)


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


SHAPE = {
    "cpus": 2, "quick": False, "python": "3.11.7",
    "publishers": 1000, "batches": 4, "edges": 20, "programs": 32, "jobs": 8,
}


def _summary(**overrides):
    return {
        "version": BASELINE_VERSION,
        **SHAPE,
        "publishes": 4000,
        "failures": 0,
        "lost_edges": 0,
        "published_weight": 1000,
        "throughput": 8000.0,
        "p99_ms": 2.0,
        **overrides,
    }


def test_gates_pass_clean_summary():
    assert check_against_baseline(_summary(), None, 0.15) == []
    assert check_against_baseline(_summary(), _summary(), 0.15) == []


def test_gates_catch_lost_edges_and_failures():
    for baseline in (None, _summary(), _summary(cpus=16)):
        failures = check_against_baseline(
            _summary(lost_edges=7, failures=2), baseline, 0.15
        )
        assert any("lost 7" in line for line in failures)
        assert any("publishes failed" in line for line in failures)


def test_baseline_regression_gate_matches_host_shape():
    baseline = _summary()
    # Same shape: a >15% throughput drop or p99 rise fails.
    failures = check_against_baseline(_summary(throughput=6000.0), baseline, 0.15)
    assert any("throughput 6,000/s fell below 6,800/s" in line for line in failures)
    failures = check_against_baseline(_summary(p99_ms=2.5), baseline, 0.15)
    assert any("p99 2.5ms rose above 2.300ms" in line for line in failures)
    assert check_against_baseline(_summary(throughput=7000.0, p99_ms=2.2), baseline, 0.15) == []
    # A different host, a --quick smoke, another workload or another
    # Python minor measured something else: only zero loss applies.
    slow = {"throughput": 100.0, "p99_ms": 50.0}
    for other in (
        {"cpus": 4}, {"quick": True}, {"publishers": 200}, {"jobs": 4},
        {"python": "3.12.1"},
    ):
        assert check_against_baseline(_summary(**slow, **other), baseline, 0.15) == []
    assert check_against_baseline(_summary(**slow, python="3.11.9"), baseline, 0.15) != []


def test_version_2_baseline_is_refused_whole():
    """A two-topology (version 2) file is not half-read: one line says
    to regenerate it, and zero loss is still enforced."""
    old = {"version": 2, "cpus": 2, "modes": {"single": {}, "sharded": {}}, "scaling_ratio": 0.59}
    assert check_against_baseline(_summary(), old, 0.15) == [
        "baseline is version 2, not 3: regenerate it with fleet-bench --write"
    ]
    failures = check_against_baseline(_summary(lost_edges=1), old, 0.15)
    assert len(failures) == 2 and "lost 1" in failures[0]


def test_committed_baseline_is_the_current_cut():
    """BENCH_fleet.json is version 3: one result block from a full run,
    with the host's shape recorded beside it."""
    import json
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "BENCH_fleet.json"
    baseline = json.loads(path.read_text())
    assert baseline["version"] == BASELINE_VERSION
    assert baseline["cpus"] >= 1 and baseline["quick"] is False
    assert "modes" not in baseline
    assert baseline["lost_edges"] == 0 and baseline["failures"] == 0
    assert baseline["merged_weight"] == baseline["published_weight"]
    assert baseline["coalesce_ratio"] >= 1.0
    assert check_against_baseline(baseline, baseline, 0.15) == []


@pytest.mark.slow
def test_tiny_bench_run_end_to_end(tmp_path):
    """A minimal run against a real spawned service: zero loss."""
    summary = collect_summary(
        publishers=8,
        batches=2,
        edges=4,
        programs=4,
        jobs=2,
        root_dir=str(tmp_path),
    )
    assert summary["failures"] == 0, summary
    assert summary["lost_edges"] == 0, summary
    assert summary["publishes"] == 16, summary
    assert summary["coalesce_ratio"] >= 1.0
    assert summary["throughput"] > 0.0
    assert summary["cpus"] >= 1
