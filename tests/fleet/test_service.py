"""Fleet service tests: concurrency, determinism, robustness."""

import asyncio
import socket
import struct

import pytest

from repro.fleet.merge import AggregateProfile, MergePolicy
from repro.fleet.protocol import (
    fetch_message,
    flush_message,
    publish_message,
    read_message,
    stats_message,
    write_message,
)
from repro.fleet.repository import ProfileRepository
from repro.fleet import service as service_module
from repro.fleet.service import FleetService

FP = "ef" * 32


def run(coro):
    return asyncio.run(coro)


async def start_service(tmp_path, **kwargs):
    policy = kwargs.pop("policy", MergePolicy(decay=0.5))
    repository = ProfileRepository(str(tmp_path / "repo"), policy)
    service = FleetService(repository, **kwargs)
    await service.start("127.0.0.1", 0)
    return service


async def request(address, message):
    reader, writer = await asyncio.open_connection(*address)
    await write_message(writer, message)
    reply = await read_message(reader)
    writer.close()
    await writer.wait_closed()
    return reply


async def publish_session(address, deltas):
    """One client connection publishing ``deltas`` frames in order."""
    reader, writer = await asyncio.open_connection(*address)
    replies = []
    for edges, epoch, run_id in deltas:
        await write_message(
            writer, publish_message(FP, edges, run_id=run_id, epoch=epoch)
        )
        replies.append(await read_message(reader))
        await asyncio.sleep(0)  # force interleaving between publishers
    writer.close()
    await writer.wait_closed()
    return replies


def publisher_deltas(publisher: int):
    return [
        ([[f"f{publisher}", batch, f"g{batch}", float(2**batch)]], publisher % 3,
         f"run-{publisher}")
        for batch in range(4)
    ]


def test_publish_then_fetch(tmp_path):
    async def go():
        service = await start_service(tmp_path)
        ack = await request(
            service.address,
            publish_message(FP, [["main", 0, "A.f", 8.0]], run_id="r1"),
        )
        assert ack["type"] == "ack"
        assert ack["staged"] is True  # acked on validate + stage, merge pending
        reply = await request(service.address, fetch_message(FP))
        await service.stop()
        return reply

    reply = run(go())
    assert reply["found"]
    assert reply["snapshot"]["fleet"]["runs"] == 1
    assert reply["snapshot"]["edges"] == [
        {"caller": "main", "pc": 0, "callee": "A.f", "weight": 8.0}
    ]


def test_fetch_unknown_fingerprint(tmp_path):
    async def go():
        service = await start_service(tmp_path)
        reply = await request(service.address, fetch_message("aa" * 32))
        await service.stop()
        return reply

    reply = run(go())
    assert reply["type"] == "snapshot" and not reply["found"]


def test_concurrent_publishers_aggregate_order_independent(tmp_path):
    """The acceptance property: >= 4 concurrent publishers, any
    interleaving, same merged aggregate."""

    async def fleet_round(path, order):
        service = await start_service(path)
        sessions = [publish_session(service.address, publisher_deltas(p)) for p in order]
        await asyncio.gather(*sessions)
        reply = await request(service.address, fetch_message(FP))
        await service.stop()
        return reply["snapshot"]

    snapshot_a = run(fleet_round(tmp_path / "a", [0, 1, 2, 3, 4]))
    snapshot_b = run(fleet_round(tmp_path / "b", [4, 3, 2, 1, 0]))
    assert snapshot_a["edges"] == snapshot_b["edges"]
    assert snapshot_a["fleet"]["runs"] == 5

    # And both equal the sequential in-process reference merge.
    reference = AggregateProfile(FP, MergePolicy(decay=0.5))
    for publisher in range(5):
        for edges, epoch, run_id in publisher_deltas(publisher):
            reference.merge_delta(edges, epoch=epoch, run_id=run_id)
    assert snapshot_a["edges"] == reference.to_dict()["edges"]


def test_killed_client_mid_frame_leaves_repository_loadable(tmp_path):
    async def go():
        service = await start_service(tmp_path)
        # A healthy publish first, so there is state worth protecting.
        await request(
            service.address, publish_message(FP, [["main", 0, "A.f", 4.0]], run_id="r1")
        )
        # Client dies mid-frame: header promises 500 bytes, sends 7.
        reader, writer = await asyncio.open_connection(*service.address)
        writer.write(struct.pack(">I", 500) + b"partial")
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        # The service keeps serving and the aggregate is intact.
        reply = await request(service.address, fetch_message(FP))
        await service.stop()
        return service, reply

    service, reply = run(go())
    assert reply["snapshot"]["fleet"]["total_weight"] == 4.0
    # The on-disk snapshot is loadable by a fresh repository.
    fresh = ProfileRepository(service.repository.root)
    assert fresh.load(FP).total_weight == 4.0
    assert fresh.quarantined == 0


def test_malformed_publish_gets_error_not_disconnect(tmp_path):
    async def go():
        service = await start_service(tmp_path)
        reader, writer = await asyncio.open_connection(*service.address)
        await write_message(writer, {"v": 1, "type": "publish"})  # no fingerprint
        error = await read_message(reader)
        await write_message(
            writer, publish_message(FP, [["main", 0, "A.f", 1.0]], run_id="r")
        )
        ack = await read_message(reader)
        writer.close()
        await writer.wait_closed()
        await service.stop()
        return error, ack, service

    error, ack, service = run(go())
    assert error["type"] == "error"
    assert ack["type"] == "ack"
    assert service.publishes_rejected == 1
    assert service.merges == 1


@pytest.mark.parametrize("kind", ["shutdown", "status"])
def test_retired_worker_kinds_are_unknown_messages(tmp_path, kind):
    """The two kinds only shard workers understood are outside input
    now: an ``error`` reply, the service keeps serving, and the
    connection stays usable."""

    async def go():
        service = await start_service(tmp_path)
        reader, writer = await asyncio.open_connection(*service.address)
        await write_message(writer, {"v": 1, "type": kind})
        error = await read_message(reader)
        await write_message(writer, stats_message())
        stats = await read_message(reader)
        writer.close()
        await writer.wait_closed()
        await service.stop()
        return error, stats

    error, stats = run(go())
    assert error["type"] == "error"
    assert error["reason"] == f"unknown message type {kind!r}"
    assert stats["type"] == "stats"


def test_bad_weights_rejected_by_service(tmp_path):
    async def go():
        service = await start_service(tmp_path)
        reply = await request(
            service.address,
            publish_message(FP, [["main", 0, "A.f", float("nan")]], run_id="r"),
        )
        await service.stop()
        return reply, service

    reply, service = run(go())
    assert reply["type"] == "error"
    assert service.merges == 0


def test_unstorable_fingerprint_rejected_in_its_own_reply(tmp_path):
    """An ack promises a snapshot, so a fingerprint the repository
    cannot name a file after is refused before it is staged."""

    async def go():
        service = await start_service(tmp_path)
        reply = await request(
            service.address,
            publish_message("../escape", [["main", 0, "A.f", 1.0]], run_id="r"),
        )
        await service.stop()
        return reply, service

    reply, service = run(go())
    assert reply["type"] == "error"
    assert service.publishes_rejected == 1
    assert service.merges == 0 and len(service.staging) == 0


def test_stats(tmp_path):
    async def go():
        service = await start_service(tmp_path)
        await request(
            service.address, publish_message(FP, [["main", 0, "A.f", 1.0]], run_id="r")
        )
        # flush is the barrier (its reply is the stats document); a plain
        # stats request after it reads the same settled counters.
        flushed = await request(service.address, flush_message())
        reply = await request(service.address, stats_message())
        await service.stop()
        return flushed, reply

    flushed, reply = run(go())
    assert flushed["type"] == reply["type"] == "stats"
    assert flushed["merges"] == reply["merges"] == 1
    assert flushed["staged"] == 0
    assert FP in reply["programs"]


def test_aggregate_survives_service_restart(tmp_path):
    async def round_one():
        service = await start_service(tmp_path)
        await request(
            service.address, publish_message(FP, [["main", 0, "A.f", 2.0]], run_id="r1")
        )
        await service.stop()

    async def round_two():
        service = await start_service(tmp_path)
        await request(
            service.address, publish_message(FP, [["main", 0, "A.f", 3.0]], run_id="r2")
        )
        reply = await request(service.address, fetch_message(FP))
        await service.stop()
        return reply

    run(round_one())
    reply = run(round_two())
    assert reply["snapshot"]["fleet"]["total_weight"] == 5.0
    assert reply["snapshot"]["fleet"]["runs"] == 2


def test_stop_hangs_up_on_idle_clients(tmp_path):
    """``stop()`` with a publisher still connected: the client reads EOF
    promptly, its handler has left through its own ``finally`` (no task
    is left for loop teardown to cancel), and what it was acked is on
    disk."""

    async def go():
        service = await start_service(tmp_path)
        reader, writer = await asyncio.open_connection(*service.address)
        await write_message(
            writer, publish_message(FP, [["main", 0, "A.f", 4.0]], run_id="r1")
        )
        ack = await read_message(reader)
        await asyncio.wait_for(service.stop(), 5)
        tail = await asyncio.wait_for(reader.read(), 1)
        pending = [
            task for task in asyncio.all_tasks()
            if not task.done() and task.get_coro().__name__ == "_handle"
        ]
        writer.close()
        return ack, tail, pending

    ack, tail, pending = run(go())
    assert ack["type"] == "ack"
    assert tail == b""
    assert pending == []
    stored = ProfileRepository(str(tmp_path / "repo")).load(FP)
    assert stored is not None and stored.total_weight == 4.0


def test_stop_is_bounded_when_a_client_never_reads(tmp_path, monkeypatch):
    """A client that pipelines fetches and stops reading leaves its
    handler in ``drain()`` with replies buffered, which ``close()``
    alone never flushes: ``stop()`` aborts it after ``HANGUP_TIMEOUT``
    and still makes the acked delta durable."""
    monkeypatch.setattr(service_module, "HANGUP_TIMEOUT", 0.2)
    edges = [[f"caller{i}", i, f"callee{i}", 1.0] for i in range(2000)]

    async def go():
        service = await start_service(tmp_path)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, service.address)
        reader, writer = await asyncio.open_connection(sock=sock)
        await write_message(writer, publish_message(FP, edges, run_id="r1"))
        ack = await read_message(reader)
        for _ in range(400):  # ~100 kB a reply, none of them read
            await write_message(writer, fetch_message(FP))
        (handler,) = service._handlers
        while service._handlers[handler].transport.get_write_buffer_size() == 0:
            await asyncio.sleep(0.01)
        await asyncio.wait_for(service.stop(), 5)
        done = handler.done()
        writer.close()
        return ack, done

    ack, done = run(go())
    assert ack["type"] == "ack"
    assert done
    stored = ProfileRepository(str(tmp_path / "repo")).load(FP)
    assert stored is not None and stored.total_weight == 2000.0


def test_connection_accepted_during_stop_is_hung_up(tmp_path):
    """A connection whose handler first runs after the listener closed
    (accepted in the same loop turn as the stop) is hung up on at once,
    not served for as long as its client cares to stay."""

    async def go():
        service = await start_service(tmp_path)
        await service.stop()
        ours, theirs = socket.socketpair()
        reader, writer = await asyncio.open_connection(sock=ours)
        served = await asyncio.open_connection(sock=theirs)
        await asyncio.wait_for(service._handle(*served), 1)
        tail = await asyncio.wait_for(reader.read(), 1)
        writer.close()
        return tail

    assert run(go()) == b""
