"""Self-test of the perf harness (not collected by tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf

Two ``--quick`` passes of all five workloads, both modes, in processes
of their own: they finish, emit exactly the names BENCHMARK.json
declares, fail no check, and read identical counts.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    results = []
    for label in "AB":
        path = tmp_path_factory.mktemp("perf") / f"{label}.json"
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--out", str(path)],
            capture_output=True, text=True, timeout=900,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        with open(path) as handle:
            results.append(json.load(handle)["workloads"])
    return results


def test_contract_shape(contract):
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(contract["workloads"]) == 5
    assert len(contract["end_to_end"]) <= 16
    assert len(contract["per_layer"]) <= 128
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_quick_pass_emits_exactly_the_declared_metrics(contract, passes):
    end_to_end = {m["name"] for m in contract["end_to_end"]}
    per_layer = {m["name"] for m in contract["per_layer"]}
    for result in passes:
        assert set(result) == {w["name"] for w in contract["workloads"]}
        for name, workload in result.items():
            assert set(workload["end_to_end"]) == end_to_end, name
            assert set(workload["per_layer"]) == per_layer, name
            assert all(value > 0 for value in workload["end_to_end"].values()), name
            assert workload["attempted"] >= 1 and workload["failed"] == 0, name


def test_every_layer_metric_is_exercised_somewhere(contract, passes):
    idle = {
        m["name"]
        for m in contract["per_layer"]
        if all(w["per_layer"][m["name"]] == 0 for w in passes[0].values())
    }
    # Zero is the right answer for these on a healthy run.
    assert idle <= {"fleet.service.busy_retries", "fleet.service.lost_weight"}


def test_counts_repeat_exactly(contract, passes):
    assert run.count_mismatches(passes[0], passes[1], contract) == []
