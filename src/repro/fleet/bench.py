"""The fleet load harness (``repro-mini fleet-bench``).

Replays thousands of synthetic publishers against a live ``serve``
process (spawned, on a fresh repository root) and measures publish
throughput, p50/p95/p99 publish latency, and — because the whole design
rests on merge commutativity — **zero edge loss**: the sum of merged
weights must equal the sum of published delta weights, exactly (the
harness publishes integral weights so the comparison has no float
slack).

Throughput is end-to-end honest: the clock stops only after a ``flush``
barrier confirms every staged delta is merged and every dirty aggregate
persisted, so coalescing cannot win by deferring work past the finish
line.

Absolute rates depend on the host, so the summary records ``cpus`` and
``python`` and the committed ``BENCH_fleet.json`` gates ``throughput``
and ``p99_ms`` only for runs of the same shape (see
:func:`check_against_baseline`); zero loss is gated everywhere.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import socket
import sys
import threading
import time

from repro.fleet.protocol import (
    ProtocolError,
    encode_message,
    fetch_message,
    flush_message,
    publish_message,
    recv_message,
    send_message,
)

BASELINE_VERSION = 3

#: A run is compared with the baseline's rates only when these match
#: (and the Python minor version): otherwise it measured something else.
SHAPE_KEYS = ("cpus", "quick", "publishers", "batches", "edges", "programs", "jobs")

SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 30.0


# -- synthetic fleet ------------------------------------------------------------------


def _fingerprint(index: int) -> str:
    return hashlib.sha256(f"fleet-bench-program-{index}".encode()).hexdigest()


def build_workload(
    publishers: int, batches: int, edges: int, programs: int, seed: int = 1
) -> tuple[list[list[bytes]], dict[str, int], list[str]]:
    """Pre-encode every publisher's frames before the timed phase.

    Returns ``(frames per publisher, expected weight per fingerprint,
    fingerprints)``.  Weights are small deterministic integers (a
    seeded affine walk, no RNG state to carry) so the zero-loss check
    is exact; edge keys cycle through a bounded pool per program so
    aggregates stay realistically sized instead of growing one key per
    published row.
    """
    fingerprints = [_fingerprint(i) for i in range(programs)]
    expected: dict[str, int] = {fp: 0 for fp in fingerprints}
    per_publisher: list[list[bytes]] = []
    state = seed & 0x7FFFFFFF
    for p in range(publishers):
        fingerprint = fingerprints[p % programs]
        run_id = f"bench-{p}"
        frames = []
        for b in range(batches):
            rows = []
            for e in range(edges):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                weight = 1 + state % 9
                key = (p * batches + b + e) % 211
                rows.append([f"M{key}.run", key % 17, f"M{(key * 7) % 211}.callee", weight])
                expected[fingerprint] += weight
            frames.append(
                encode_message(
                    publish_message(
                        fingerprint, rows, run_id=run_id, seq=b, epoch=0
                    )
                )
            )
        per_publisher.append(frames)
    return per_publisher, expected, fingerprints


# -- server process -------------------------------------------------------------------


def _server_main(conn, root: str):
    """Entry point of the benched service process (spawn-safe)."""
    asyncio.run(_server_async(conn, root))


async def _server_async(conn, root) -> None:
    from repro.fleet.service import run_service

    def ready(address):
        conn.send(address)

    task = asyncio.ensure_future(run_service(root, ready=ready))
    # Block a worker thread on the pipe; the parent's "stop" unblocks it.
    await asyncio.to_thread(conn.recv)
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass
    conn.send("stopped")


class _ServerProcess:
    """A benched fleet service in its own process, stopped in-band."""

    def __init__(self, root: str):
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_server_main,
            args=(child_conn, root),
            name="fleet-bench-server",
        )
        self.process.start()
        child_conn.close()
        if not self._conn.poll(SERVER_START_TIMEOUT):
            self.process.terminate()
            raise RuntimeError("bench service did not start")
        self.address = self._conn.recv()

    def stop(self) -> None:
        try:
            self._conn.send("stop")
            if self._conn.poll(SERVER_STOP_TIMEOUT):
                self._conn.recv()
        except (OSError, EOFError):
            pass
        self.process.join(SERVER_STOP_TIMEOUT)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(SERVER_STOP_TIMEOUT)
        self._conn.close()


# -- load generation ------------------------------------------------------------------


class _LoadJob(threading.Thread):
    """One connection replaying a slice of the publishers, in order.

    Sends are synchronous (send, await reply, record the round trip);
    concurrency comes from running ``jobs`` of these threads at once.
    ``busy`` replies are honored with the server's ``retry_after`` and
    the frame is resent — a busy publish only counts once acked.
    """

    def __init__(self, address, publishers: list[list[bytes]]):
        super().__init__(daemon=True)
        self.address = address
        self.publishers = publishers
        self.latencies: list[float] = []
        self.busy_retries = 0
        self.failures = 0

    def run(self) -> None:
        try:
            sock = socket.create_connection(self.address, timeout=30.0)
            sock.settimeout(30.0)
        except OSError:
            self.failures = sum(len(frames) for frames in self.publishers)
            return
        try:
            for frames in self.publishers:
                for frame in frames:
                    self._publish(sock, frame)
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _publish(self, sock, frame: bytes) -> None:
        while True:
            started = time.perf_counter()
            try:
                sock.sendall(frame)
                reply = recv_message(sock)
            except (OSError, ProtocolError):
                self.failures += 1
                return
            if reply.get("type") == "busy":
                self.busy_retries += 1
                try:
                    retry_after = float(reply.get("retry_after", 0.01))
                except (TypeError, ValueError):
                    retry_after = 0.01
                time.sleep(min(max(retry_after, 0.001), 0.5))
                continue
            if reply.get("type") == "ack":
                self.latencies.append(time.perf_counter() - started)
            else:
                self.failures += 1
            return


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _replay(
    address,
    per_publisher: list[list[bytes]],
    expected: dict[str, int],
    fingerprints: list[str],
    jobs: int,
) -> dict:
    """Replay the workload against the live service and measure it."""
    shares: list[list[list[bytes]]] = [[] for _ in range(jobs)]
    for index, frames in enumerate(per_publisher):
        shares[index % jobs].append(frames)
    workers = [_LoadJob(address, share) for share in shares if share]

    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    publish_seconds = time.perf_counter() - started

    # The end-to-end barrier: everything staged must merge and persist
    # before the clock stops.
    with socket.create_connection(address, timeout=60.0) as sock:
        sock.settimeout(60.0)
        send_message(sock, flush_message())
        stats = recv_message(sock)
        e2e_seconds = time.perf_counter() - started
        merged_weight = 0
        for fingerprint in fingerprints:
            send_message(sock, fetch_message(fingerprint))
            reply = recv_message(sock)
            snapshot = reply.get("snapshot")
            if isinstance(snapshot, dict):
                merged_weight += round(
                    sum(edge["weight"] for edge in snapshot.get("edges", ()))
                )

    latencies = sorted(
        latency for worker in workers for latency in worker.latencies
    )
    publishes = len(latencies)
    published_weight = sum(expected.values())
    return {
        "publishes": publishes,
        "failures": sum(worker.failures for worker in workers),
        "busy_retries": sum(worker.busy_retries for worker in workers),
        "publish_seconds": round(publish_seconds, 4),
        "e2e_seconds": round(e2e_seconds, 4),
        "throughput": round(publishes / e2e_seconds, 1) if e2e_seconds else 0.0,
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p95_ms": round(_percentile(latencies, 0.95) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
        "published_weight": published_weight,
        "merged_weight": merged_weight,
        "lost_edges": published_weight - merged_weight,
        "coalesce_ratio": stats.get("coalesce_ratio", 0.0),
        "merges": stats.get("merges", 0),
    }


# -- entry points ---------------------------------------------------------------------


def collect_summary(
    publishers: int = 1000,
    batches: int = 4,
    edges: int = 20,
    programs: int = 32,
    jobs: int = 8,
    quick: bool = False,
    root_dir: str | None = None,
) -> dict:
    """Boot a service, replay the workload, return the ``BENCH_fleet.json`` summary."""
    import tempfile

    if quick:
        publishers = min(publishers, 200)
        batches = min(batches, 3)
        edges = min(edges, 10)
        programs = min(programs, 8)
        jobs = min(jobs, 4)
    per_publisher, expected, fingerprints = build_workload(
        publishers, batches, edges, programs
    )
    with tempfile.TemporaryDirectory(dir=root_dir) as root:
        server = _ServerProcess(root)
        try:
            result = _replay(server.address, per_publisher, expected, fingerprints, jobs)
        finally:
            server.stop()
    return {
        "version": BASELINE_VERSION,
        "quick": quick,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "publishers": publishers,
        "batches": batches,
        "edges": edges,
        "programs": programs,
        "jobs": jobs,
        **result,
    }


def same_shape(summary: dict, baseline: dict) -> bool:
    """Whether ``summary``'s rates are comparable with ``baseline``'s."""

    def python_minor(document):
        return str(document.get("python", "")).split(".")[:2]

    return python_minor(summary) == python_minor(baseline) and all(
        summary.get(key) == baseline.get(key) for key in SHAPE_KEYS
    )


def check_against_baseline(
    summary: dict, baseline: dict | None, max_regress: float
) -> list[str]:
    """Return failure messages (empty = pass).

    Always enforced: zero publish failures and **zero lost edges** —
    every published weight is found in the merged aggregates.

    With a baseline file, additionally ``throughput`` and ``p99_ms``
    within ``max_regress`` of the committed values — but only when the
    run has the baseline's shape (:func:`same_shape`).  A ``--quick``
    smoke against the full baseline, or a 4-core runner against a 2-core
    baseline, measures a different thing and is gated by the checks
    above alone.
    """
    failures = []
    if summary.get("failures"):
        failures.append(f"{summary['failures']} publishes failed")
    if summary.get("lost_edges"):
        failures.append(
            f"lost {summary['lost_edges']} of "
            f"{summary['published_weight']} published edge weight"
        )
    if baseline is None:
        return failures
    if baseline.get("version") != BASELINE_VERSION:
        return failures + [
            f"baseline is version {baseline.get('version')}, not "
            f"{BASELINE_VERSION}: regenerate it with fleet-bench --write"
        ]
    if same_shape(summary, baseline):
        floor = baseline["throughput"] * (1.0 - max_regress)
        if summary["throughput"] < floor:
            failures.append(
                f"throughput {summary['throughput']:,.0f}/s fell below {floor:,.0f}/s "
                f"(baseline {baseline['throughput']:,.0f}/s - {max_regress:.0%})"
            )
        ceiling = baseline["p99_ms"] * (1.0 + max_regress)
        if summary["p99_ms"] > ceiling:
            failures.append(
                f"p99 {summary['p99_ms']}ms rose above {ceiling:.3f}ms "
                f"(baseline {baseline['p99_ms']}ms + {max_regress:.0%})"
            )
    return failures


def run_fleet_bench(args) -> int:
    """The ``repro-mini fleet-bench`` backend (argparse namespace in)."""
    summary = collect_summary(
        publishers=args.publishers,
        batches=args.batches,
        edges=args.edges,
        programs=args.programs,
        jobs=args.jobs,
        quick=args.quick,
    )
    text = json.dumps(summary, indent=2) + "\n"
    if args.write:
        with open(args.write, "w") as handle:
            handle.write(text)
        print(f"wrote {args.write}", file=sys.stderr)
    elif args.json:
        print(text, end="")
    else:
        print(
            f"fleet-bench: {summary['publishers']} publishers x "
            f"{summary['batches']} batches x {summary['edges']} edges\n"
            f"  {summary['throughput']:,.0f} publishes/s  "
            f"p50 {summary['p50_ms']}ms p95 {summary['p95_ms']}ms "
            f"p99 {summary['p99_ms']}ms  lost edges {summary['lost_edges']}"
        )
    baseline = None
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
    failures = check_against_baseline(
        summary, baseline, getattr(args, "max_regress", 0.15)
    )
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if failures:
        return 1
    if args.check:
        rates = (
            f"{summary['throughput']:,.0f} publishes/s and p99 "
            f"{summary['p99_ms']}ms within bounds"
            if same_shape(summary, baseline)
            else "rates not compared (run shape differs from the baseline's)"
        )
        print(f"OK zero edge loss, {rates}", file=sys.stderr)
    return 0
