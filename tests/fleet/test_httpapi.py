"""The live observability plane: /metrics, /healthz, /status against a
real fleet service with real publishers."""

import json
import socket
import threading
import urllib.error
import urllib.request

from repro.fleet.client import FleetPublisher
from repro.fleet.protocol import (
    flush_message,
    publish_message,
    recv_message,
    send_message,
)
from repro.frontend.codegen import compile_source
from repro.profiling.cbs import CBSProfiler
from repro.telemetry import Tracer
from repro.telemetry.httpapi import HttpServerThread, ObservabilityHTTP
from repro.telemetry.promfmt import validate_text
from repro.vm.interpreter import Interpreter

from tests.fleet._service_thread import ServiceThread

SOURCE = """
class A { def f(): int { return 1; } }
def helper(): int { return 2; }
def main() {
  var a = new A();
  var t = 0;
  for (var i = 0; i < 20000; i = i + 1) { t = t + a.f() + helper(); }
  print(t);
}
"""


def http_get(address, path):
    url = f"http://{address[0]}:{address[1]}{path}"
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode()


def publish_run(program, address, run_id=None, seed=5):
    publisher = FleetPublisher(address, program, every_ticks=2, run_id=run_id)
    vm = Interpreter(program)
    vm.attach_profiler(CBSProfiler(seed=seed))
    publisher.install(vm)
    vm.run()
    publisher.flush(vm)
    publisher.close()
    return publisher


def test_healthz(tmp_path):
    with ServiceThread(str(tmp_path / "repo"), http=True) as server:
        status, _headers, body = http_get(server.http_address, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}


def test_metrics_endpoint_advances_under_concurrent_publishers(tmp_path):
    program = compile_source(SOURCE)
    with ServiceThread(str(tmp_path / "repo"), http=True) as server:
        threads = [
            threading.Thread(
                target=publish_run,
                args=(program, server.address),
                kwargs={"run_id": f"run-{i}", "seed": 5 + i},
            )
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        # Acks run ahead of merges; flush is the barrier that settles
        # the counters compared below.
        with socket.create_connection(server.address, timeout=5.0) as sock:
            send_message(sock, flush_message())
            assert recv_message(sock)["staged"] == 0

        status, headers, body = http_get(server.http_address, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = validate_text(body)  # scrapable Prometheus text format
        assert families["fleet_publishes_total"]["type"] == "counter"
        assert families["fleet_publishes_total"]["samples"][0][2] > 0
        assert "fleet_delta_edges" in families
        assert families["fleet_delta_edges"]["type"] == "histogram"
        assert "fleet_active_connections" in families
        # One program, three runs: the gauge counts fingerprints.
        assert families["fleet_programs"]["samples"][0][2] == 1.0

        status, _headers, body = http_get(server.http_address, "/status")
        assert status == 200
        document = json.loads(body)
        assert document["totals"]["merges"] > 0
        assert set(document["clients"]) == {"run-0", "run-1", "run-2"}
        for entry in document["clients"].values():
            assert entry["publishes"] > 0
            assert entry["dropped"] == 0
            assert entry["drop_rate"] == 0.0

        # The framed-socket stats reply gained the new keys additively.
        stats = server.service._on_stats()
        assert stats["merges"] == document["totals"]["merges"]
        assert stats["clients"] == 3
        assert stats["client_drops"] == 0


def test_status_infers_drops_from_seq_gaps(tmp_path):
    program = compile_source(SOURCE)
    fingerprint = program.fingerprint()
    name = program.functions[0].qualified_name
    with ServiceThread(str(tmp_path / "repo"), http=True) as server:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.settimeout(5.0)
            for seq in (0, 3):  # seqs 1 and 2 were dropped client-side
                send_message(
                    sock,
                    publish_message(
                        fingerprint,
                        [[name, 0, name, 1.0]],
                        run_id="gappy",
                        seq=seq,
                    ),
                )
                assert recv_message(sock)["type"] == "ack"
        _status, _headers, body = http_get(server.http_address, "/status")
        client = json.loads(body)["clients"]["gappy"]
        assert client["publishes"] == 2
        assert client["dropped"] == 2
        assert client["last_seq"] == 3
        assert client["drop_rate"] == 0.5

        _status, _headers, metrics = http_get(server.http_address, "/metrics")
        families = validate_text(metrics)
        assert families["fleet_client_drops_total"]["samples"][0][2] == 2.0


def test_unknown_path_is_404(tmp_path):
    with ServiceThread(str(tmp_path / "repo"), http=True) as server:
        try:
            http_get(server.http_address, "/nope")
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404
            document = json.loads(error.read().decode())
            assert "/metrics" in document["paths"]


def test_non_get_is_405(tmp_path):
    with ServiceThread(str(tmp_path / "repo"), http=True) as server:
        request = urllib.request.Request(
            f"http://{server.http_address[0]}:{server.http_address[1]}/metrics",
            data=b"{}",
            method="POST",
        )
        try:
            urllib.request.urlopen(request, timeout=5.0)
            raise AssertionError("expected 405")
        except urllib.error.HTTPError as error:
            assert error.code == 405


def test_unwired_endpoints_are_503():
    import asyncio

    async def scenario():
        server = ObservabilityHTTP()  # no registry, no status_fn
        address = await server.start("127.0.0.1", 0)
        reader, writer = await asyncio.open_connection(*address)
        writer.write(b"GET /metrics HTTP/1.1\r\n\r\n")
        await writer.drain()
        head = await reader.readline()
        writer.close()
        await server.stop()
        return head

    head = asyncio.run(scenario())
    assert b"503" in head


def test_http_server_thread_serves_vm_tracer_registry():
    """The `run --metrics-port` topology: the listener runs on its own
    daemon thread with the VM's tracer registry behind /metrics."""
    program = compile_source(SOURCE)
    vm = Interpreter(program)
    tracer = Tracer()
    vm.attach_telemetry(tracer)
    vm.attach_profiler(CBSProfiler(seed=5))
    server = ObservabilityHTTP(
        registry=tracer.metrics,
        status_fn=lambda: {"vtime": vm.time, "steps": vm.steps},
    )
    with HttpServerThread(server) as listener:
        vm.run()
        _status, _headers, body = http_get(listener.address, "/metrics")
        families = validate_text(body)
        assert families["vm_ticks_total"]["samples"][0][2] > 0
        _status, _headers, body = http_get(listener.address, "/status")
        assert json.loads(body)["steps"] == vm.steps
