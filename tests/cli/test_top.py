"""``repro-mini top`` against a live service — and against dead ones.

The happy path polls a real fleet service's ``/status`` listener (same
in-process topology the fleet client tests use).  The failure paths are
the satellite contract: a refused connection, a server that went away
mid-session, or a malformed payload must exit nonzero with a one-line
diagnostic — never a traceback.
"""

from __future__ import annotations

import http.server
import json
import socket
import threading

import pytest

from repro.cli import main
from repro.fleet.protocol import (
    flush_message,
    publish_message,
    recv_message,
    send_message,
)
from tests.fleet._service_thread import ServiceThread


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_top_renders_live_status(tmp_path, capsys):
    with ServiceThread(str(tmp_path), http=True) as service:
        with socket.create_connection(service.address, timeout=5.0) as sock:
            for index in range(2):
                send_message(
                    sock,
                    publish_message(
                        f"{index:02x}" * 32, [["main", 0, "A.f", 1.0]], run_id="r"
                    ),
                )
                assert recv_message(sock)["type"] == "ack"
            send_message(sock, flush_message())
            assert recv_message(sock)["merges"] == 2
        host, port = service.http_address
        assert main(["top", f"{host}:{port}", "--once"]) == 0
    out = capsys.readouterr().out
    assert "fleet service @" in out
    totals = out.splitlines()
    header = next(line for line in totals if "Merges" in line)
    assert header.split()[:2] == ["Programs", "Merges"]
    assert totals[totals.index(header) + 2].split()[:2] == ["2", "2"]


def test_top_connection_refused_is_one_line(capsys):
    port = _free_port()  # bound then closed: nothing listens here
    with pytest.raises(SystemExit) as excinfo:
        main(["top", f"127.0.0.1:{port}", "--once"])
    message = str(excinfo.value)
    assert message.startswith(f"cannot poll http://127.0.0.1:{port}/status")
    assert "\n" not in message
    assert "Traceback" not in capsys.readouterr().err


def test_top_server_gone_is_one_line(tmp_path):
    with ServiceThread(str(tmp_path), http=True) as service:
        host, port = service.http_address
    # The context manager stopped the service; the address is now dead.
    with pytest.raises(SystemExit) as excinfo:
        main(["top", f"{host}:{port}", "--once"])
    assert str(excinfo.value).startswith("cannot poll")


class _Misbehaving(http.server.BaseHTTPRequestHandler):
    payload: bytes = b"[]"

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        body = self.payload
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep test output clean
        pass


@pytest.fixture
def misbehaving_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Misbehaving)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(5)


def test_top_without_shards_has_no_shard_table(tmp_path, capsys):
    with ServiceThread(str(tmp_path), http=True) as service:
        host, port = service.http_address
        assert main(["top", f"{host}:{port}", "--once"]) == 0
    out = capsys.readouterr().out
    assert "Shard" not in out


def test_top_rejects_non_object_status(misbehaving_server):
    _Misbehaving.payload = json.dumps([1, 2, 3]).encode()
    host, port = misbehaving_server.server_address
    with pytest.raises(SystemExit) as excinfo:
        main(["top", f"{host}:{port}", "--once"])
    assert "JSON object" in str(excinfo.value)


def test_top_rejects_unparseable_status(misbehaving_server):
    _Misbehaving.payload = b"not json at all"
    host, port = misbehaving_server.server_address
    with pytest.raises(SystemExit) as excinfo:
        main(["top", f"{host}:{port}", "--once"])
    assert str(excinfo.value).startswith("cannot poll")
