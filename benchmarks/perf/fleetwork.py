"""The ``fleet_mixed`` workload: publish and fetch against a live service.

One spawned process runs ``fleet.service.run_service`` with its
defaults — whatever ``repro-mini serve`` does with no flags — and two
closed-loop connections replay ``fleet.bench.build_workload``.  The
second connection fetches the fingerprint it just published after every
fourth publish, so a write-path win that costs reads shows.  Every rep
boots a fresh server on an empty repository; the clock stops only after
the ``flush`` barrier.  The sharded topology stays out: N workers, a
frontend and a generator on two cores measure the scheduler, and
``BENCH_fleet.json`` already gates that ratio in CI.
"""

from __future__ import annotations

import gc
import hashlib
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

from repro.fleet.bench import build_workload
from repro.fleet.merge import AggregateProfile, coalesce_validated
from repro.fleet.protocol import (
    ProtocolError,
    decode_payload,
    encode_message,
    extract_fingerprint,
    fetch_message,
    flush_message,
    publish_message,
    recv_message,
    send_message,
)
from repro.fleet.repository import ProfileRepository
from repro.fleet.staging import StagingBuffer

from measure import HERE, OUT, SRC, Recorder, Workload, percentile

SERVER = os.path.join(HERE, "fleet_server.py")

START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
SOCKET_TIMEOUT = 60.0
FETCH_EVERY = 4
HEADER_BYTES = 4  # big-endian payload length, per the protocol's framing


def payload_of(frame: bytes) -> bytes:
    length = int.from_bytes(frame[:HEADER_BYTES], "big")
    if HEADER_BYTES + length != len(frame):
        raise ValueError("not a single length-prefixed frame")
    return frame[HEADER_BYTES:]


def snapshot_weight(reply: dict) -> int:
    snapshot = reply.get("snapshot")
    if not isinstance(snapshot, dict):
        return 0
    return round(sum(edge["weight"] for edge in snapshot.get("edges", ())))


class Server:
    """The service under test in its own process."""

    def __init__(self, root: str):
        self.process = subprocess.Popen(
            [sys.executable, SERVER, root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError("fleet service did not start")
        host, port = line.split()
        self.address = (host, int(port))

    def stop(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Connection(threading.Thread):
    """One closed-loop client: send, wait for the reply, send the next.

    A ``busy`` reply is honoured with the server's ``retry_after`` and
    the frame resent; a publish counts once, when acked.
    """

    def __init__(self, label: str, address, script: list[tuple]):
        super().__init__(name=f"fleet-load-{label}")
        self.label = label
        self.address = address
        self.script = script
        self.publishes: list[tuple[float, float]] = []  # (start, end)
        self.fetches: list[tuple[float, float]] = []
        self.busy_retries = 0
        self.failures: list[str] = []
        self.acked: dict[str, int] = {}

    def run(self) -> None:
        try:
            with socket.create_connection(self.address, timeout=SOCKET_TIMEOUT) as sock:
                for op in self.script:
                    if op[0] == "publish":
                        self._publish(sock, *op[1:])
                    else:
                        self._fetch(sock, *op[1:])
        except (OSError, ProtocolError) as error:
            done = len(self.publishes) + len(self.fetches)
            self.failures.extend(
                [f"connection {self.label} broke: {error}"] * (len(self.script) - done)
            )

    def _publish(self, sock, frame: bytes, fingerprint: str, weight: int) -> None:
        while True:
            started = time.perf_counter()
            sock.sendall(frame)
            reply = recv_message(sock)
            ended = time.perf_counter()
            if reply.get("type") != "busy":
                break
            self.busy_retries += 1
            time.sleep(min(max(float(reply.get("retry_after", 0.01)), 0.001), 0.5))
        self.publishes.append((started, ended))
        if reply.get("type") == "ack":
            self.acked[fingerprint] = self.acked.get(fingerprint, 0) + weight
        else:
            self.failures.append(f"publish answered {reply.get('type')!r}")

    def _fetch(self, sock, frame: bytes, fingerprint: str) -> None:
        started = time.perf_counter()
        sock.sendall(frame)
        reply = recv_message(sock)
        self.fetches.append((started, time.perf_counter()))
        # Read-your-writes: at least everything this connection had acked.
        if snapshot_weight(reply) < self.acked.get(fingerprint, 0):
            self.failures.append(f"fetch of {fingerprint[:8]} missed an acked publish")


class Traffic:
    """Everything set-up derives from the seed."""

    def __init__(self, seed: int, quick: bool):
        publishers = 60 if quick else 200
        per_publisher, self.expected, self.fingerprints = build_workload(
            publishers=publishers, batches=4, edges=20, programs=16, seed=seed
        )
        self.messages = []  # decoded publish messages, in publisher order
        scripts: list[list[tuple]] = [[], []]
        published = [0, 0]
        for index, frames in enumerate(per_publisher):
            script = scripts[index % 2]
            for frame in frames:
                message = decode_payload(payload_of(frame))
                self.messages.append(message)
                fingerprint = message["fingerprint"]
                weight = sum(row[3] for row in message["edges"])
                script.append(("publish", frame, fingerprint, weight))
                published[index % 2] += 1
                if index % 2 == 1 and published[1] % FETCH_EVERY == 0:
                    script.append(
                        ("fetch", encode_message(fetch_message(fingerprint)), fingerprint)
                    )
        self.scripts = scripts
        self.frames = [frame for frames in per_publisher for frame in frames]
        # The warm-up batch goes to a fingerprint of its own, so the
        # zero-loss check on the sixteen measured ones stays exact.
        self.warm_fingerprint = hashlib.sha256(b"perf-warm-up").hexdigest()
        self.warm_frames = [
            encode_message(
                publish_message(
                    self.warm_fingerprint, [["W.run", 1, "W.callee", 3]],
                    run_id="warm-up", seq=seq, epoch=0,
                )
            )
            for seq in range(4)
        ]


class FleetMixed(Workload):
    name = "fleet_mixed"
    #: Each rep boots a fresh server, so no rep is a warm-up for the next.
    warmup_rep = False
    children_in_rss = True

    def prepare(self, seed: int, quick: bool) -> Traffic:
        traffic = Traffic(seed, quick)
        # Booting (and stopping) a server is part of what set-up costs.
        root = tempfile.mkdtemp(dir=OUT, prefix="fleet-setup-")
        try:
            Server(root).stop()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return traffic

    def rep(self, rec: Recorder, traffic: Traffic) -> None:
        root = tempfile.mkdtemp(dir=OUT, prefix="fleet-")
        gc.collect()
        boot_started = time.perf_counter()
        server = Server(root)
        try:
            with rec.span("fleet.rep", None):
                self._warm_up(rec, server, traffic, boot_started)
                self._replay(rec, server, traffic)
        finally:
            server.stop()
            shutil.rmtree(root, ignore_errors=True)

    @staticmethod
    def _warm_up(rec: Recorder, server: Server, traffic: Traffic, boot_started: float) -> None:
        with socket.create_connection(server.address, timeout=SOCKET_TIMEOUT) as sock:
            for index, frame in enumerate(traffic.warm_frames):
                sock.sendall(frame)
                ack = recv_message(sock)
                send_message(sock, fetch_message(traffic.warm_fingerprint))
                seen = snapshot_weight(recv_message(sock))
                if index == 0:
                    # The cold path ends here: process spawned, service
                    # listening, first delta merged, persisted and read back.
                    rec.add("fleet.cold", None, time.perf_counter() - boot_started, cold=True)
                rec.check(
                    ack.get("type") == "ack" and seen == 3 * (index + 1),
                    "warm-up publish was not acked and read back",
                )

    @staticmethod
    def _replay(rec: Recorder, server: Server, traffic: Traffic) -> None:
        connections = [
            Connection(label, server.address, script)
            for label, script in zip("AB", traffic.scripts)
        ]
        with rec.span("fleet.replay", None):
            started = time.perf_counter()
            for connection in connections:
                connection.start()
            for connection in connections:
                connection.join()
            with socket.create_connection(server.address, timeout=SOCKET_TIMEOUT) as sock:
                flush_started = time.perf_counter()
                send_message(sock, flush_message())
                stats = recv_message(sock)
                ended = time.perf_counter()
                # Zero loss, exactly: weights are small integers.
                lost = 0
                for fingerprint in traffic.fingerprints:
                    send_message(sock, fetch_message(fingerprint))
                    merged = snapshot_weight(recv_message(sock))
                    lost += abs(traffic.expected[fingerprint] - merged)
                    rec.check(
                        merged == traffic.expected[fingerprint],
                        f"{fingerprint[:8]} merged {merged}, published "
                        f"{traffic.expected[fingerprint]}",
                    )
            for connection in connections:
                for kind, rows in (("publish", connection.publishes), ("fetch", connection.fetches)):
                    for index, (start, end) in enumerate(rows):
                        rec.add_span(
                            f"fleet.service.{kind}", f"{connection.label}:{index}", start, end
                        )
        rec.tally(
            sum(len(c.script) for c in connections),
            [failure for c in connections for failure in c.failures],
        )

        publishes = [end - start for c in connections for start, end in c.publishes]
        fetches = [end - start for c in connections for start, end in c.fetches]
        rec.add("fleet.replay", None, ended - started)
        rec.add("fleet.flush", None, ended - flush_started)
        for name, values, q in (
            ("fleet.publish_p50", publishes, 0.50),
            ("fleet.publish_p95", publishes, 0.95),
            ("fleet.publish_p99", publishes, 0.99),
            ("fleet.fetch_p50", fetches, 0.50),
            ("fleet.fetch_p95", fetches, 0.95),
        ):
            rec.add(name, None, percentile(values, q))
        rec.count("fleet.publishes", None, len(publishes))
        rec.count("fleet.fetches", None, len(fetches))
        rec.count("fleet.service.merges", None, stats.get("merges", 0))
        rec.count("fleet.service.lost_weight", None, lost)
        rec.add("fleet.busy_retries", None, sum(c.busy_retries for c in connections))

    def end_to_end(self, rec: Recorder, traffic: Traffic) -> dict:
        return {
            "cold_s": rec.fastest("fleet.cold"),
            "steady_per_s": rec.counts[("fleet.publishes", None)] / rec.fastest("fleet.replay"),
        }

    def traced_rep(self, rec: Recorder, traffic: Traffic) -> None:
        self.rep(rec, traffic)

    def traced_once(self, rec: Recorder, traffic: Traffic, quick: bool) -> None:
        """Each pure function on the accept, merge and persist paths,
        timed over this workload's own frames in this process."""
        messages = traffic.messages
        payloads = [payload_of(frame) for frame in traffic.frames]
        validated = [
            (
                m["fingerprint"], int(m.get("epoch", 0)), m.get("run_id"),
                [((str(a), int(pc), str(b)), float(w)) for a, pc, b, w in m["edges"]],
            )
            for m in messages
        ]
        root = tempfile.mkdtemp(dir=OUT, prefix="fleet-layers-")
        try:
            for _ in range(2 if quick else 5):
                self._layer_pass(rec, messages, payloads, validated, root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        rec.count("fleet.protocol.frame_bytes", None, sum(len(f) for f in traffic.frames))

    @staticmethod
    def _layer_pass(rec: Recorder, messages, payloads, validated, root: str) -> None:
        rec.timed("fleet.protocol.encode", None, lambda: [encode_message(m) for m in messages])
        rec.timed("fleet.protocol.decode", None, lambda: [decode_payload(p) for p in payloads])
        rec.timed(
            "fleet.protocol.extract_fingerprint", None,
            lambda: [extract_fingerprint(p) for p in payloads],
        )

        # The eager path: one merge_delta per publish.
        eager: dict[str, AggregateProfile] = {}

        def merge_eagerly():
            for m in messages:
                aggregate = eager.get(m["fingerprint"])
                if aggregate is None:
                    aggregate = eager[m["fingerprint"]] = AggregateProfile(m["fingerprint"])
                aggregate.merge_delta(m["edges"], epoch=m.get("epoch", 0), run_id=m.get("run_id"))

        rec.timed("fleet.merge.merge_delta", None, merge_eagerly)

        # The coalescing path: stage, then one lump per fingerprint.
        staging = StagingBuffer()
        rec.timed(
            "fleet.staging.stage", None,
            lambda: [staging.stage(fp, epoch, edges, [], [], run) for fp, epoch, run, edges in validated],
        )
        lumped: dict[str, AggregateProfile] = {}

        def merge_coalesced():
            for fingerprint, deltas, run_ids, count in staging.take_all():
                aggregate = lumped[fingerprint] = AggregateProfile(fingerprint)
                aggregate.merge_coalesced(coalesce_validated(deltas), run_ids, count)

        rec.timed("fleet.merge.coalesced", None, merge_coalesced)
        rec.count("fleet.merge.coalesce_ratio", None, staging.coalesce_ratio())
        rec.check(
            all(lumped[fp].edges() == eager[fp].edges() for fp in eager),
            "coalesced and eager merges disagree",
        )

        repository = ProfileRepository(root)
        aggregates = list(eager.values())
        rec.timed("fleet.merge.to_dict", None, lambda: [a.to_dict() for a in aggregates])
        paths = rec.timed(
            "fleet.repository.store", None, lambda: [repository.store(a) for a in aggregates]
        )
        rec.timed(
            "fleet.repository.load", None,
            lambda: [repository.load(a.fingerprint) for a in aggregates],
        )
        rec.count(
            "fleet.repository.snapshot_bytes", None, sum(os.path.getsize(p) for p in paths)
        )

    def per_layer(self, rec: Recorder, traced: Recorder, traffic: Traffic) -> dict:
        return {
            "fleet.protocol.encode_s": traced.fastest("fleet.protocol.encode"),
            "fleet.protocol.decode_s": traced.fastest("fleet.protocol.decode"),
            "fleet.protocol.extract_fingerprint_s":
                traced.fastest("fleet.protocol.extract_fingerprint"),
            "fleet.protocol.frame_bytes": traced.counts[("fleet.protocol.frame_bytes", None)],
            "fleet.staging.stage_s": traced.fastest("fleet.staging.stage"),
            "fleet.merge.merge_delta_s": traced.fastest("fleet.merge.merge_delta"),
            "fleet.merge.coalesced_s": traced.fastest("fleet.merge.coalesced"),
            "fleet.merge.coalesce_ratio": traced.counts[("fleet.merge.coalesce_ratio", None)],
            "fleet.merge.to_dict_s": traced.fastest("fleet.merge.to_dict"),
            "fleet.repository.store_s": traced.fastest("fleet.repository.store"),
            "fleet.repository.load_s": traced.fastest("fleet.repository.load"),
            "fleet.repository.snapshot_bytes":
                traced.counts[("fleet.repository.snapshot_bytes", None)],
            "fleet.service.publish_p50_ms": 1e3 * traced.fastest("fleet.publish_p50"),
            "fleet.service.publish_p95_ms": 1e3 * traced.fastest("fleet.publish_p95"),
            "fleet.service.publish_p99_ms": 1e3 * traced.fastest("fleet.publish_p99"),
            "fleet.service.fetch_p50_ms": 1e3 * traced.fastest("fleet.fetch_p50"),
            "fleet.service.fetch_p95_ms": 1e3 * traced.fastest("fleet.fetch_p95"),
            "fleet.service.busy_retries": max(traced.samples["fleet.busy_retries"][None]),
            "fleet.service.merges": traced.counts[("fleet.service.merges", None)],
            "fleet.service.flush_s": traced.fastest("fleet.flush"),
            "fleet.service.lost_weight": traced.counts[("fleet.service.lost_weight", None)],
        }

    def same_work_seconds(self, rec: Recorder, traced: Recorder) -> tuple[float, float]:
        return rec.fastest("fleet.replay"), traced.fastest("fleet.replay")
