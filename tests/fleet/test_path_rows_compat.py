"""Ball-Larus path rows from before path profiling was removed.

No client publishes path rows any more.  A publish frame from an older
client that carries a ``paths`` key, whatever its value, is acked and
its edges merge; the key is ignored.  A snapshot an older server
wrote with a ``paths`` section loads with its edges and metadata intact
and is stored back without the section.
The staging buffer keeps an empty ``paths`` slot in :meth:`stage` for
the measurement spine, which still passes ``[]`` there.
"""

import asyncio
import json

import pytest

from repro.fleet.merge import AggregateProfile, MergePolicy, coalesce_validated
from repro.fleet.protocol import fetch_message, publish_message, read_message, write_message
from repro.fleet.repository import ProfileRepository
from repro.fleet.service import FleetService
from repro.fleet.staging import StagingBuffer

FP = "cd" * 32

#: A snapshot as a server that still had path publishers stored it.
OLD_SNAPSHOT = {
    "version": 3,
    "fingerprint": FP,
    "edges": [{"caller": "main", "pc": 4, "callee": "A.f", "weight": 6.0}],
    "fleet": {"runs": 2, "publishes": 3, "epoch": 1, "total_weight": 6.0},
    "receivers": [["main", 4, "A", 5.0]],
    "paths": [["A.f", 0, 2.0], ["main", 3, 9.0]],
}


def test_old_snapshot_with_path_rows_loads_and_round_trips(tmp_path):
    repo = ProfileRepository(str(tmp_path))
    with open(repo.path_for(FP), "w") as handle:
        json.dump(OLD_SNAPSHOT, handle)
    restored = repo.load(FP)
    assert repo.quarantined == 0
    assert restored.edges() == {("main", 4, "A.f"): 6.0}
    assert (restored.runs, restored.publishes, restored.epoch) == (2, 3, 1)
    with open(repo.store(restored), "rb") as handle:
        first = handle.read()
    assert json.loads(first) == {
        k: v for k, v in OLD_SNAPSHOT.items() if k not in ("paths", "receivers")
    }
    with open(repo.store(repo.load(FP)), "rb") as handle:
        assert handle.read() == first
    # A section that is not even a list is ignored the same way.
    garbled = dict(OLD_SNAPSHOT, paths="not rows")
    assert AggregateProfile.from_dict(garbled).to_dict() == restored.to_dict()


async def publish_then_fetch(root, frames):
    service = FleetService(ProfileRepository(root, MergePolicy()))
    await service.start("127.0.0.1", 0)
    reader, writer = await asyncio.open_connection(*service.address)
    replies = []
    for message in frames + [fetch_message(FP)]:
        await write_message(writer, message)
        replies.append(await read_message(reader))
    writer.close()
    await writer.wait_closed()
    await service.stop()
    return replies


def old_frames(path_values):
    """One frame per value of an older client's ``paths`` key."""
    frames = []
    for seq, rows in enumerate(path_values):
        message = publish_message(FP, [["main", 4, "A.f", 3.0]], run_id="old", seq=seq)
        message["paths"] = rows
        frames.append(message)
    return frames


def check_merged_without_paths(replies, root, count):
    *acks, fetched = replies
    assert [ack["type"] for ack in acks] == ["ack"] * count
    snapshot = fetched["snapshot"]
    assert snapshot["edges"] == [
        {"caller": "main", "pc": 4, "callee": "A.f", "weight": 3.0 * count}
    ]
    assert "paths" not in snapshot
    with open(root / f"{FP}.json") as handle:
        assert json.load(handle) == snapshot


def test_publish_frame_with_path_rows_is_accepted_and_merged(tmp_path):
    frames = old_frames(([["main", 3, 4.0]], [["main", 3, 5.0], ["A.f", 0, 2.0]]))
    replies = asyncio.run(publish_then_fetch(str(tmp_path / "repo"), frames))
    check_merged_without_paths(replies, tmp_path / "repo", 2)


def test_publish_frame_with_non_list_paths_is_accepted_and_merged(tmp_path):
    frames = old_frames(("not rows", {"main": 3}, 7, None, [["malformed"]]))
    replies = asyncio.run(publish_then_fetch(str(tmp_path / "repo"), frames))
    check_merged_without_paths(replies, tmp_path / "repo", 5)


def test_stage_takes_the_measurement_spines_call():
    """``benchmarks/perf/fleetwork.py`` stages with ``stage(fp, epoch,
    edges, [], [], run)`` and merges ``take_all()``'s deltas through
    ``coalesce_validated``; that must equal one merge per delta."""
    messages = [
        (FP, 0, "r1", [(("main", 4, "A.f"), 3.0)]),
        (FP, 1, "r2", [(("main", 4, "A.f"), 2.0), (("A.f", 0, "B.g"), 1.0)]),
        ("ef" * 32, 0, "r1", [(("main", 0, "C.h"), 4.0)]),
    ]
    staging = StagingBuffer()
    depths = [staging.stage(fp, epoch, edges, [], [], run) for fp, epoch, run, edges in messages]
    assert depths == [1, 2, 3] and staging.staged_rows == 4
    lumped = {}
    for fingerprint, deltas, run_ids, count in staging.take_all():
        aggregate = lumped[fingerprint] = AggregateProfile(fingerprint)
        aggregate.merge_coalesced(coalesce_validated(deltas), run_ids, count)
    assert len(staging) == 0 and staging.staged_rows == 0
    for fingerprint, aggregate in lumped.items():
        eager = AggregateProfile(fingerprint)
        for fp, epoch, run, edges in messages:
            if fp == fingerprint:
                rows = [[a, pc, b, weight] for (a, pc, b), weight in edges]
                eager.merge_delta(rows, epoch=epoch, run_id=run)
        assert aggregate.to_dict() == eager.to_dict()


def test_stage_refuses_path_rows():
    staging = StagingBuffer()
    with pytest.raises(ValueError, match="receivers and paths must be empty"):
        staging.stage(FP, 0, [(("main", 4, "A.f"), 3.0)], [], [(("main", 3), 4.0)], "r1")
    assert len(staging) == 0 and staging.staged_rows == 0 and staging.take_all() == []
