"""Fleet load-harness tests: workload determinism, gates, a tiny run."""

import pytest

from repro.fleet.bench import (
    RATIO_FLOOR,
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


def _summary(scaling=3.5, p99=1.5, workers=4, cpus=8, **mode_overrides):
    mode = {
        "publishes": 100,
        "failures": 0,
        "lost_edges": 0,
        "published_weight": 1000,
        **mode_overrides,
    }
    return {
        "modes": {
            "single": dict(mode),
            "sharded": {**mode, "workers": workers},
        },
        "scaling_ratio": scaling,
        "p99_ratio": p99,
        "cpus": cpus,
    }


def test_gates_pass_clean_summary():
    assert check_against_baseline(_summary(), None, 0.15) == []


def test_gates_catch_lost_edges_and_failures():
    failures = check_against_baseline(
        _summary(lost_edges=7, failures=2), None, 0.15
    )
    assert any("lost 7" in line for line in failures)
    assert any("publishes failed" in line for line in failures)


def test_gates_enforce_hard_scaling_floor():
    """Both topologies run one publish path, so the only hard floor is
    "sharding must not lose" — and only where it can win: on a host
    with more cores than shard workers."""
    assert RATIO_FLOOR == 1.0
    failures = check_against_baseline(_summary(scaling=0.9), None, 0.15)
    assert any("scaling ratio 0.90x is below 1.00x" in line for line in failures)
    assert check_against_baseline(_summary(scaling=1.05), None, 0.15) == []
    # 4 workers + frontend + load generator on 2 or 4 cores time-share:
    # a ratio below 1 there is the host, not a regression.
    for cpus in (2, 4):
        assert check_against_baseline(_summary(scaling=0.7, cpus=cpus), None, 0.15) == []


def test_gates_enforce_p99_floor():
    failures = check_against_baseline(_summary(p99=0.8), None, 0.15)
    assert any("p99 ratio 0.80x" in line for line in failures)
    assert check_against_baseline(_summary(p99=0.8, cpus=2), None, 0.15) == []


def test_baseline_regression_gate_matches_worker_count():
    baseline = {
        "scaling_ratio": 4.0,
        "p99_ratio": 2.0,
        "cpus": 8,
        "modes": {"sharded": {"workers": 4}},
    }
    # Same shape (worker count and cores): a >15% ratio drop fails.
    failures = check_against_baseline(_summary(scaling=3.2), baseline, 0.15)
    assert any("fell below 3.40x" in line for line in failures)
    failures = check_against_baseline(_summary(p99=1.6), baseline, 0.15)
    assert any("p99 ratio 1.60x fell below 1.70x" in line for line in failures)
    # Different worker count (a --quick 2-worker smoke against the full
    # 4-worker baseline) or a host with a different core count: the
    # committed ratio measured something else, only the floor applies.
    assert (
        check_against_baseline(_summary(scaling=3.2, workers=2), baseline, 0.15)
        == []
    )
    assert check_against_baseline(_summary(scaling=3.2, cpus=16), baseline, 0.15) == []


def test_committed_baseline_is_the_same_path_cut():
    """BENCH_fleet.json is version 2: it records the host's cores, and
    its single mode coalesces like its sharded mode (version 1's single
    was the eager path, so its ratio was not a sharding ratio)."""
    import json
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "BENCH_fleet.json"
    baseline = json.loads(path.read_text())
    assert baseline["version"] == 2
    assert baseline["cpus"] >= 1
    for mode in baseline["modes"].values():
        assert mode["lost_edges"] == 0 and mode["failures"] == 0
        assert mode["coalesce_ratio"] >= 1.0
    assert check_against_baseline(baseline, baseline, 0.15) == []


@pytest.mark.slow
def test_tiny_bench_run_end_to_end(tmp_path):
    """A minimal two-topology run: both modes complete with zero loss."""
    summary = collect_summary(
        publishers=8,
        batches=2,
        edges=4,
        programs=4,
        workers=2,
        jobs=2,
        root_dir=str(tmp_path),
    )
    for name, mode in summary["modes"].items():
        assert mode["failures"] == 0, (name, mode)
        assert mode["lost_edges"] == 0, (name, mode)
        assert mode["publishes"] == 16, (name, mode)
    for mode in summary["modes"].values():  # one publish path in both
        assert mode["coalesce_ratio"] >= 1.0
    assert summary["scaling_ratio"] > 0.0
    assert summary["cpus"] >= 1
