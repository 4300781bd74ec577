"""What is durable when: the barriers, against a real ``serve`` process.

An ack means *validated and staged*; the merge and the snapshot write
happen behind it.  The contract (docs/FLEET.md) names the points at
which everything acked so far is on disk — a ``flush`` reply, a closed
connection, a stopped service — and these tests hold each of them from
outside the process: publish, read the acks, end the server the hard
way, boot a fresh one on the same root and compare fetched weight with
published weight, exactly (weights are small integers).
"""

from __future__ import annotations

import os
import re
import select
import signal
import socket
import subprocess
import sys
import time

import repro
from repro.fleet.protocol import (
    fetch_message,
    flush_message,
    publish_message,
    recv_message,
    send_message,
)
from repro.fleet.repository import ProfileRepository

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

FPS = [format(i, "x").rjust(8, "0") + "0" * 56 for i in range(6)]
DELTAS = 60


class Served:
    """``repro-mini serve`` as a real process."""

    def __init__(self, root):
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                   "--root", str(root)]
        self.process = subprocess.Popen(
            command, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        deadline = time.monotonic() + 60.0
        self.address = None
        #: Everything the service wrote to stderr after its readiness
        #: line, available once :meth:`kill` has run.
        self.log = ""
        while self.address is None and time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stderr], [], [], 1.0)
            line = self.process.stderr.readline() if ready else ""
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
            elif ready and not line:
                break  # the process died before listening
        if self.address is None:
            self.kill()
            raise AssertionError("serve did not start listening")

    def kill(self) -> None:
        """``kill -9`` the service."""
        self.process.kill()
        self.process.wait(30)
        if not self.process.stderr.closed:
            self.log = self.process.stderr.read()
            self.process.stderr.close()

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=30.0)
        sock.settimeout(30.0)
        return sock


def publish_burst(sock) -> dict[str, int]:
    """Publish DELTAS deltas round-robin over FPS, read every ack;
    returns the published weight per fingerprint."""
    published = dict.fromkeys(FPS, 0)
    for seq in range(DELTAS):
        fingerprint = FPS[seq % len(FPS)]
        weight = 1 + seq % 7
        send_message(
            sock,
            publish_message(
                fingerprint, [["main", seq % 5, "A.f", weight], ["A.f", 1, "B.g", 2]],
                run_id=f"run-{seq % 4}", seq=seq,
            ),
        )
        ack = recv_message(sock)
        assert ack["type"] == "ack" and ack["staged"] is True, ack
        published[fingerprint] += weight + 2
    return published


def fetched_weights(root) -> dict[str, int]:
    """Boot a fresh service on ``root`` and fetch every fingerprint."""
    server = Served(root)
    try:
        with server.connect() as sock:
            weights = {}
            for fingerprint in FPS:
                send_message(sock, fetch_message(fingerprint))
                snapshot = recv_message(sock).get("snapshot") or {}
                weights[fingerprint] = round(
                    sum(edge["weight"] for edge in snapshot.get("edges", ()))
                )
        return weights
    finally:
        server.kill()


def test_sigterm_stops_gracefully_and_loses_nothing(tmp_path):
    """``kill <pid>`` right after the last ack, connection still open:
    the staged tail is merged and persisted on the way out."""
    server = Served(tmp_path)
    sock = server.connect()
    try:
        published = publish_burst(sock)
        server.process.send_signal(signal.SIGTERM)
        returncode = server.process.wait(10)
        assert sock.recv(1) == b""  # the stopping server hung up on us
    finally:
        sock.close()
        server.kill()
    assert returncode == 0, server.log
    assert "fleet service stopped" in server.log
    assert "Exception in callback" not in server.log
    assert fetched_weights(tmp_path) == published


def test_flush_reply_is_a_durability_barrier(tmp_path):
    """``kill -9`` straight after a ``flush`` reply loses nothing."""
    server = Served(tmp_path)
    try:
        with server.connect() as sock:
            published = publish_burst(sock)
            send_message(sock, flush_message())
            stats = recv_message(sock)
            server.kill()  # no connection close, no shutdown path
    finally:
        server.kill()
    assert stats["type"] == "stats"
    assert stats["merges"] == DELTAS and stats["staged"] == 0
    assert fetched_weights(tmp_path) == published


def test_connection_close_is_a_durability_barrier(tmp_path):
    """Publish, hang up without a flush: the snapshots on disk reach the
    published weight on their own, and survive a ``kill -9`` after."""
    server = Served(tmp_path)
    try:
        with server.connect() as sock:
            published = publish_burst(sock)
        repository = ProfileRepository(str(tmp_path))
        deadline = time.monotonic() + 30.0
        on_disk = {}
        while on_disk != published and time.monotonic() < deadline:
            time.sleep(0.02)
            loaded = {fp: repository.load(fp) for fp in FPS}
            on_disk = {
                fp: round(aggregate.total_weight) if aggregate else 0
                for fp, aggregate in loaded.items()
            }
        assert on_disk == published
        assert repository.quarantined == 0  # never saw a torn snapshot
    finally:
        server.kill()
    assert fetched_weights(tmp_path) == published
