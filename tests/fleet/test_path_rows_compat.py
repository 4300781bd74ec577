"""Ball-Larus path rows from before path profiling was removed.

No client publishes path rows any more, but the service still accepts
them from older clients, merges them like edges, and keeps them in
snapshots; a snapshot an older server wrote with a ``paths`` section
still loads and round-trips byte for byte.
"""

import asyncio
import json

from repro.fleet.merge import AggregateProfile, MergePolicy
from repro.fleet.protocol import fetch_message, publish_message, read_message, write_message
from repro.fleet.repository import ProfileRepository
from repro.fleet.service import FleetService

FP = "cd" * 32

#: A snapshot as a server that still had path publishers stored it.
OLD_SNAPSHOT = {
    "version": 3,
    "fingerprint": FP,
    "edges": [{"caller": "main", "pc": 4, "callee": "A.f", "weight": 6.0}],
    "fleet": {"runs": 2, "publishes": 3, "epoch": 1, "total_weight": 6.0},
    "paths": [["A.f", 0, 2.0], ["main", 3, 9.0]],
}


def test_old_snapshot_with_path_rows_loads_and_round_trips(tmp_path):
    restored = AggregateProfile.from_dict(json.loads(json.dumps(OLD_SNAPSHOT)))
    assert restored.edges() == {("main", 4, "A.f"): 6.0}
    assert restored.paths() == {("A.f", 0): 2.0, ("main", 3): 9.0}
    repo = ProfileRepository(str(tmp_path))
    with open(repo.store(restored), "rb") as handle:
        first = handle.read()
    reloaded = repo.load(FP)
    assert reloaded.paths() == restored.paths()
    assert reloaded.edges() == restored.edges()
    with open(repo.store(reloaded), "rb") as handle:
        assert handle.read() == first


def test_publish_frame_with_path_rows_is_accepted_and_merged(tmp_path):
    async def go():
        repository = ProfileRepository(str(tmp_path / "repo"), MergePolicy())
        service = FleetService(repository)
        await service.start("127.0.0.1", 0)
        reader, writer = await asyncio.open_connection(*service.address)
        replies = []
        for seq, rows in enumerate(([["main", 3, 4.0]], [["main", 3, 5.0], ["A.f", 0, 2.0]])):
            message = publish_message(FP, [["main", 4, "A.f", 3.0]], run_id="old", seq=seq)
            message["paths"] = rows
            await write_message(writer, message)
            replies.append(await read_message(reader))
        await write_message(writer, fetch_message(FP))
        replies.append(await read_message(reader))
        writer.close()
        await writer.wait_closed()
        await service.stop()
        return replies

    *acks, fetched = asyncio.run(go())
    assert [ack["type"] for ack in acks] == ["ack", "ack"]
    snapshot = fetched["snapshot"]
    assert snapshot["edges"] == [{"caller": "main", "pc": 4, "callee": "A.f", "weight": 6.0}]
    assert snapshot["paths"] == [["A.f", 0, 2.0], ["main", 3, 9.0]]
    with open(tmp_path / "repo" / f"{FP}.json") as handle:
        assert json.load(handle)["paths"] == snapshot["paths"]
