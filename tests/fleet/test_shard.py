"""Sharded fleet frontend tests: routing, fan-out, zero loss, lifecycle.

Worker processes are real (spawn), so each test that boots a fleet
pays a couple of interpreter startups — kept to a handful of tests
that each cover several properties at once.  The client side runs in
a thread (``asyncio.to_thread``): the frontend serves on the test's
own event loop, so blocking socket calls on that loop would deadlock.
"""

import asyncio
import json
import os
import signal
import socket
import struct
import threading

import pytest

from repro.fleet.protocol import (
    decode_payload,
    encode_message,
    extract_fingerprint,
    fetch_message,
    flush_message,
    publish_message,
    shard_for,
    stats_message,
    status_message,
)
from repro.fleet import service as service_module
from repro.fleet import shard as shard_module
from repro.fleet.repository import ProfileRepository
from repro.fleet.shard import start_sharded_fleet

pytestmark = pytest.mark.slow


# -- routing units (no processes) ------------------------------------------------------


def test_shard_for_is_deterministic_and_balanced():
    assert shard_for("00000000" + "0" * 56, 4) == 0
    assert shard_for("00000001" + "0" * 56, 4) == 1
    assert shard_for("ffffffff" + "0" * 56, 4) == int("ffffffff", 16) % 4
    assert shard_for("anything", 1) == 0
    assert shard_for("not-hex!" + "0" * 56, 4) == 0  # junk routes to 0
    # Every shard is reachable over a realistic fingerprint population.
    import hashlib

    owners = {
        shard_for(hashlib.sha256(str(i).encode()).hexdigest(), 4)
        for i in range(64)
    }
    assert owners == {0, 1, 2, 3}


def test_extract_fingerprint_without_full_parse():
    fp = "ab" * 32
    payload = encode_message(publish_message(fp, [["m", 0, "f", 1.0]], "r1"))[4:]
    assert extract_fingerprint(payload) == fp
    # A fingerprint-free frame yields None; junk yields None.
    assert extract_fingerprint(encode_message(stats_message())[4:]) is None
    assert extract_fingerprint(b"\xff\xfenot json") is None
    # A quote-bearing string value before the key cannot fool the scan:
    # quotes inside JSON strings are always escaped, forcing fallback.
    tricky = json.dumps(
        {"note": 'fake \\"fingerprint\\":\\"00\\" here', "fingerprint": fp}
    ).encode()
    assert extract_fingerprint(tricky) == fp


# -- live fleet end to end -------------------------------------------------------------


def rpc(sock, message):
    sock.sendall(encode_message(message))
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            raise ConnectionError("server closed the connection")
        header += chunk
    (length,) = struct.unpack(">I", header)
    payload = b""
    while len(payload) < length:
        payload += sock.recv(length - len(payload))
    return decode_payload(payload)


#: Fingerprints whose first-8-hex prefixes split evenly across 2 shards.
FPS = [format(i, "x").rjust(8, "0") + "0" * 56 for i in range(6)]


def _drive_fleet(host, port):
    """The blocking client script: publish, flush, fetch, observe."""
    out = {}
    sock = socket.create_connection((host, port), timeout=30.0)
    sock.settimeout(30.0)
    try:
        for index, fp in enumerate(FPS):
            ack = rpc(
                sock,
                publish_message(
                    fp, [["a", 1, "b", 3.0], ["c", 2, "d", 2.0]],
                    run_id=f"run-{index}",
                ),
            )
            assert ack["type"] == "ack", ack
            assert ack.get("staged") is True, ack
        out["flush"] = rpc(sock, flush_message())
        out["snapshots"] = {fp: rpc(sock, fetch_message(fp)) for fp in FPS}
        out["stats"] = rpc(sock, stats_message())
        out["status"] = rpc(sock, status_message())["status"]
        out["shutdown"] = rpc(sock, {"v": 1, "type": "shutdown"})
    finally:
        sock.close()
    return out


def test_sharded_fleet_end_to_end(tmp_path):
    async def go():
        frontend = await start_sharded_fleet(str(tmp_path / "fleet"), workers=2, port=0)
        try:
            return await asyncio.to_thread(_drive_fleet, *frontend.address)
        finally:
            await frontend.stop()

    out = asyncio.run(go())

    # The flush barrier fans out and replies with combined stats.
    assert out["flush"]["type"] == "stats"
    assert out["flush"]["merges"] == 6
    assert out["flush"]["staged"] == 0

    # Zero loss: every fingerprint's aggregate holds exactly its deltas.
    for fp, reply in out["snapshots"].items():
        assert reply["found"], fp
        total = sum(edge["weight"] for edge in reply["snapshot"]["edges"])
        assert total == 5.0, (fp, total)

    # Fanned-out stats combine all shards.
    stats = out["stats"]
    assert stats["shards"] == 2
    assert stats["merges"] == 6
    assert sorted(stats["programs"]) == sorted(FPS)

    # The combined status carries per-shard rows with balanced routing.
    shards = out["status"]["shards"]
    assert [row["shard"] for row in shards] == [0, 1]
    assert all(row["alive"] for row in shards)
    assert [row["merges"] for row in shards] == [3, 3]
    assert [row["programs"] for row in shards] == [3, 3]
    assert sum(row["routed"] for row in shards) == 12  # 6 publishes + 6 fetches
    for row in shards:
        assert row["queue_depth"] == 0  # flushed
        assert row["coalesce_ratio"] >= 1.0

    # The frontend refuses in-band shutdown from clients.
    assert out["shutdown"]["type"] == "error"

    # Snapshots landed in the shared repository root on disk.
    for fp in FPS:
        assert (tmp_path / "fleet" / f"{fp}.json").exists()


def test_sharded_routing_is_sticky_per_fingerprint(tmp_path):
    """Same fingerprint, many publishes: all land on one shard, and the
    merged weight is the exact integral sum (zero loss through
    coalescing)."""
    fp = FPS[3]

    def drive(host, port):
        sock = socket.create_connection((host, port), timeout=30.0)
        sock.settimeout(30.0)
        try:
            for seq in range(20):
                ack = rpc(
                    sock,
                    publish_message(
                        fp, [["m", 0, "f", float(seq + 1)]],
                        run_id="hot", seq=seq,
                    ),
                )
                assert ack["type"] == "ack", ack
            rpc(sock, flush_message())
            snapshot = rpc(sock, fetch_message(fp))
            status = rpc(sock, status_message())["status"]
        finally:
            sock.close()
        return snapshot, status

    async def go():
        frontend = await start_sharded_fleet(str(tmp_path / "fleet"), workers=2, port=0)
        try:
            return await asyncio.to_thread(drive, *frontend.address)
        finally:
            await frontend.stop()

    snapshot, status = asyncio.run(go())
    total = sum(edge["weight"] for edge in snapshot["snapshot"]["edges"])
    assert total == float(sum(range(1, 21)))
    owner = shard_for(fp, 2)
    merges = {row["shard"]: row["merges"] for row in status["shards"]}
    assert merges[owner] == 20
    assert merges[1 - owner] == 0


def test_frontend_stop_hangs_up_on_idle_clients(tmp_path):
    """``stop()`` with a publisher still connected: the client reads EOF
    promptly and its acked delta is on disk — the same contract as
    ``FleetService.stop()``."""
    fp = FPS[2]

    def drive(host, port, stopping):
        sock = socket.create_connection((host, port), timeout=30.0)
        sock.settimeout(30.0)
        try:
            ack = rpc(sock, publish_message(fp, [["m", 0, "f", 4.0]], run_id="r1"))
            stopping.set()
            sock.settimeout(5.0)
            return ack, sock.recv(1)
        finally:
            sock.close()

    async def go():
        frontend = await start_sharded_fleet(str(tmp_path / "fleet"), workers=2, port=0)
        stopping = threading.Event()
        client = asyncio.ensure_future(
            asyncio.to_thread(drive, *frontend.address, stopping)
        )
        try:
            await asyncio.to_thread(stopping.wait, 30)
        finally:
            await asyncio.wait_for(frontend.stop(), 30)
        return await client

    ack, tail = asyncio.run(go())
    assert ack["type"] == "ack"
    assert tail == b""
    stored = ProfileRepository(str(tmp_path / "fleet")).load(fp)
    assert stored is not None and stored.total_weight == 4.0


def test_frontend_stop_is_bounded_when_a_worker_is_wedged(tmp_path, monkeypatch):
    """A handler waiting on a worker that never answers must not keep
    ``stop()`` from reaching the worker-terminate fallback."""
    monkeypatch.setattr(service_module, "HANGUP_TIMEOUT", 0.2)
    monkeypatch.setattr(shard_module, "WORKER_STOP_TIMEOUT", 0.5)
    fp = FPS[2]

    async def go():
        frontend = await start_sharded_fleet(str(tmp_path / "fleet"), workers=2, port=0)
        owner = shard_for(fp, 2)
        wedged = frontend.processes[owner]
        os.kill(wedged.pid, signal.SIGSTOP)
        try:
            _, writer = await asyncio.open_connection(*frontend.address)
            writer.write(encode_message(publish_message(fp, [["m", 0, "f", 4.0]], "r1")))
            while not frontend.links[owner]._pending:
                await asyncio.sleep(0.01)
            await asyncio.wait_for(frontend.stop(), 10)
            writer.close()
        finally:
            wedged.kill()  # SIGTERM stays queued on a stopped process
            wedged.join(10)
        return [process.is_alive() for process in frontend.processes]

    assert asyncio.run(go()) == [False, False]


def test_start_sharded_fleet_requires_two_workers(tmp_path):
    async def go():
        with pytest.raises(ValueError):
            await start_sharded_fleet(str(tmp_path / "fleet"), workers=1)

    asyncio.run(go())
