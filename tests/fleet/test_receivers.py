"""Inline-cache receiver rows from before the fleet stopped carrying them.

No client publishes receiver rows any more, and no snapshot stores
them.  A publish frame from an older client that carries a
``receivers`` key, whatever its value, is acked and its edges merge;
the key is ignored.  A snapshot an older server wrote with a
``receivers`` section loads with its edges and metadata intact and is
stored back without the section.  The staging buffer keeps an empty
``receivers`` slot in :meth:`stage` for the measurement spine, which
still passes ``[]`` there.
"""

import asyncio
import json

import pytest

from repro.fleet import client
from repro.fleet.merge import MergePolicy
from repro.fleet.protocol import fetch_message, publish_message, read_message, write_message
from repro.fleet.repository import ProfileRepository
from repro.fleet.service import FleetService
from repro.fleet.staging import StagingBuffer
from repro.frontend.codegen import compile_source
from repro.profiling.cbs import CBSProfiler
from repro.vm.interpreter import Interpreter
from tests.fleet._service_thread import ServiceThread

FP = "ab" * 32

#: A snapshot as a server that still merged receiver rows stored it.
OLD_SNAPSHOT = {
    "version": 3,
    "fingerprint": FP,
    "edges": [{"caller": "main", "pc": 4, "callee": "A.f", "weight": 3.0}],
    "fleet": {"runs": 1, "publishes": 1, "epoch": 0, "total_weight": 3.0},
    "receivers": [["Worker.step", 9, "A", 5.0], ["main", 4, "A", 30.0]],
}

#: Values an older client's ``receivers`` key may hold: well-formed
#: rows, other JSON types, and the malformed rows the service used to
#: reject.
RECEIVER_VALUES = {
    "list": [["main", 4, "A", 30.0], ["main", 4, "B", 10.0]],
    "string": "not rows",
    "object": {"main": 4},
    "null": None,
    "malformed0": [["main", 4, "A"]],  # missing count
    "malformed1": [["main", 4, "A", float("nan")]],
    "malformed2": [["main", 4, "A", -1.0]],
    "malformed3": [["main", "x", "A", 1.0]],
    "malformed4": ["not-a-row"],
}


#: Two receiver classes at one hot virtual site.
POLYMORPHIC = """
class A { def f(): int { return 1; } }
class B extends A { def f(): int { return 2; } }
def main() {
  var objs = new A[2];
  objs[0] = new A();
  objs[1] = new B();
  var t = 0;
  for (var i = 0; i < 20000; i = i + 1) { t = t + objs[i % 2].f(); }
  print(t);
}
"""


def test_publisher_sends_edges_only(tmp_path, monkeypatch):
    """The inline caches count receivers during the run; the frames the
    publisher sends carry edges and nothing of those counts."""
    sent = []
    send = client.send_message

    def recording_send(sock, message):
        sent.append(message)
        send(sock, message)

    monkeypatch.setattr(client, "send_message", recording_send)
    program = compile_source(POLYMORPHIC)
    with ServiceThread(str(tmp_path / "repo")) as server:
        publisher = client.FleetPublisher(server.address, program, every_ticks=2)
        vm = Interpreter(program)
        vm.attach_profiler(CBSProfiler(seed=5))
        publisher.install(vm)
        vm.run()
        publisher.flush(vm)
        publisher.close()
    assert vm.code_cache.receiver_cell_total() > 0
    assert publisher.batches_sent == len(sent) > 0
    for message in sent:
        assert message["type"] == "publish" and message["edges"]
        assert "receivers" not in message


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


@pytest.mark.parametrize("value", list(RECEIVER_VALUES.values()), ids=list(RECEIVER_VALUES))
def test_publish_frame_with_any_receivers_value_is_acked_and_merged(tmp_path, value):
    frames = []
    for seq in range(2):
        message = publish_message(FP, [["main", 4, "A.f", 3.0]], run_id="old", seq=seq)
        message["receivers"] = value
        frames.append(message)
    root = tmp_path / "repo"
    *acks, fetched = asyncio.run(publish_then_fetch(str(root), frames))
    assert [ack["type"] for ack in acks] == ["ack", "ack"]
    snapshot = fetched["snapshot"]
    assert snapshot["edges"] == [
        {"caller": "main", "pc": 4, "callee": "A.f", "weight": 6.0}
    ]
    assert "receivers" not in snapshot
    with open(root / f"{FP}.json") as handle:
        assert json.load(handle) == snapshot


@pytest.mark.parametrize(
    "section", [OLD_SNAPSHOT["receivers"], "not rows", None], ids=["list", "string", "null"]
)
def test_old_snapshot_with_receivers_loads_and_is_stored_without_them(tmp_path, section):
    repo = ProfileRepository(str(tmp_path))
    with open(repo.path_for(FP), "w") as handle:
        json.dump(dict(OLD_SNAPSHOT, receivers=section), handle)
    restored = repo.load(FP)
    assert repo.quarantined == 0
    assert restored.edges() == {("main", 4, "A.f"): 3.0}
    assert (restored.runs, restored.publishes, restored.epoch) == (1, 1, 0)
    with open(repo.store(restored), "rb") as handle:
        first = handle.read()
    assert json.loads(first) == {k: v for k, v in OLD_SNAPSHOT.items() if k != "receivers"}
    with open(repo.store(repo.load(FP)), "rb") as handle:
        assert handle.read() == first


@pytest.mark.parametrize(
    "bad",
    [
        [["main", 4, "A"]],  # missing count
        [["main", 4, "A", float("nan")]],
        [["main", 4, "A", -1.0]],
        [["main", "x", "A", 1.0]],
        ["not-a-row"],
    ],
)
def test_malformed_receiver_rows_rejected_without_mutation(bad):
    staging = StagingBuffer()
    staging.stage(FP, 0, [(("main", 4, "A.f"), 3.0)], [], [], "a")
    with pytest.raises(ValueError, match="receivers and paths must be empty"):
        staging.stage(FP, 1, [(("main", 4, "A.f"), 1.0)], bad, [], "b")
    assert (len(staging), staging.staged_rows) == (1, 1)
    assert staging.take_all() == [(FP, [(0, [(("main", 4, "A.f"), 3.0)])], {"a"}, 1)]


def test_stage_refuses_receiver_rows():
    staging = StagingBuffer()
    with pytest.raises(ValueError, match="receivers and paths must be empty"):
        staging.stage(FP, 0, [(("main", 4, "A.f"), 3.0)], [(("main", 4, "A"), 5.0)], [], "r1")
    assert len(staging) == 0 and staging.staged_rows == 0 and staging.take_all() == []
