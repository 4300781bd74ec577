"""Repository durability: atomic writes, corruption quarantine."""

import json
import os

import pytest

from repro.fleet.merge import AggregateProfile, MergePolicy
from repro.fleet.repository import ProfileRepository, RepositoryError

FP = "cd" * 32


def make_aggregate(weight=4.0):
    aggregate = AggregateProfile(FP)
    aggregate.merge_delta([["main", 0, "A.f", weight]], run_id="r1")
    return aggregate


def test_store_load_roundtrip(tmp_path):
    repo = ProfileRepository(str(tmp_path / "repo"))
    path = repo.store(make_aggregate())
    assert os.path.exists(path)
    loaded = repo.load(FP)
    assert loaded.edges() == {("main", 0, "A.f"): 4.0}
    assert repo.fingerprints() == [FP]


def test_store_bytes_match_the_streaming_encoder(tmp_path):
    """``store`` serialises with ``json.dumps`` (the C encoder); the
    file must stay byte-identical to the ``json.dump`` form it replaced,
    on a snapshot with edges, receivers and non-integral floats."""
    import io

    aggregate = AggregateProfile(FP, MergePolicy(decay=0.5))
    aggregate.merge_delta(
        [["main", 0, "A.f", 4.0], ["A.f", 3, "B.g", 0.1], ["é", 1, 'q"uote', 1e-9]],
        epoch=0,
        run_id="r1",
        receivers=[["main", 0, "A", 3.0], ["main", 0, "B", 1.5]],
    )
    aggregate.merge_delta([["main", 0, "A.f", 1e16]], epoch=2, run_id="r2")
    repo = ProfileRepository(str(tmp_path))
    with open(repo.store(aggregate), newline="") as handle:
        stored = handle.read()
    streamed = io.StringIO()
    json.dump(aggregate.to_dict(), streamed, separators=(",", ":"))
    assert stored == streamed.getvalue()
    snapshot = json.loads(stored)
    assert snapshot["receivers"] and len(snapshot["edges"]) == 3


def test_load_absent_returns_none(tmp_path):
    repo = ProfileRepository(str(tmp_path))
    assert repo.load(FP) is None


def test_store_leaves_no_temp_files(tmp_path):
    repo = ProfileRepository(str(tmp_path))
    repo.store(make_aggregate())
    assert [name for name in os.listdir(tmp_path) if name.endswith(".tmp")] == []


def test_corrupt_snapshot_quarantined(tmp_path):
    repo = ProfileRepository(str(tmp_path))
    repo.store(make_aggregate())
    with open(repo.path_for(FP), "w") as handle:
        handle.write('{"version": 2, "edges": [{"trunc')
    assert repo.load(FP) is None
    assert repo.quarantined == 1
    assert os.path.exists(repo.path_for(FP) + ".corrupt")
    assert repo.fingerprints() == []
    # The fingerprint is usable again: store fresh, load fine.
    repo.store(make_aggregate(weight=1.0))
    assert repo.load(FP).total_weight == 1.0


def test_semantically_invalid_snapshot_quarantined(tmp_path):
    repo = ProfileRepository(str(tmp_path))
    with open(repo.path_for(FP), "w") as handle:
        json.dump({"version": 2, "fingerprint": FP, "edges": [{"caller": "x"}]}, handle)
    assert repo.load(FP) is None
    assert repo.quarantined == 1


def test_invalid_fingerprint_rejected(tmp_path):
    repo = ProfileRepository(str(tmp_path))
    for bad in ("", "UPPER", "../escape", "zz", "a" * 65):
        with pytest.raises(RepositoryError):
            repo.path_for(bad)


def test_unusable_root_reported(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(RepositoryError, match="cannot create"):
        ProfileRepository(str(blocker / "sub"))


def test_policy_flows_into_loaded_aggregates(tmp_path):
    policy = MergePolicy(decay=0.5)
    repo = ProfileRepository(str(tmp_path), policy)
    repo.store(make_aggregate())
    assert repo.load(FP).policy is policy


def test_deeply_nested_snapshot_quarantined(tmp_path):
    repo = ProfileRepository(str(tmp_path))
    with open(repo.path_for(FP), "w") as handle:
        handle.write('{"edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert repo.load(FP) is None
    assert repo.quarantined == 1
    assert os.path.exists(repo.path_for(FP) + ".corrupt")
