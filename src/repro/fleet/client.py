"""VM-side fleet client: a non-perturbing background publisher.

The publisher's contract is strict: **a dead, slow, or flaky server
must never change a run's result or its virtual time.**  Everything the
VM's thread does is cheap, bounded dictionary work — every ``K`` ticks
it diffs the profiler's DCG against what was last handed off and pushes
the delta onto a bounded in-memory queue (dropping, and counting the
drop, if the queue is full).  All socket work — connect, retry with
exponential backoff, framing, acks — happens on a daemon worker thread.
No exception from the worker can reach the VM, and nothing the worker
does charges virtual time, so a published run is bit-identical to an
unpublished one.

After ``max_failures`` consecutive connection failures the publisher
declares the server dead and drops batches without further connection
attempts, bounding wasted wall time for fire-and-forget runs against a
down aggregator.  Dead is not forever: every ``revive_every`` dropped
batches the worker spends one bounded connection probe, so a restarted
server regains its publishers within a few batches instead of losing
them for the life of the run.

Backpressure is distinct from failure: a ``busy`` reply means the
server is healthy but loaded, so the worker honors its ``retry_after``
with a bounded sleep and resends — busy replies never count toward
dead-server detection and never tear down the connection.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time

from repro.fleet.protocol import (
    ProtocolError,
    fetch_message,
    publish_message,
    recv_message,
    send_message,
)

_CLOSE = object()  # queue sentinel


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``host:port`` (the ``--publish`` argument)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {text!r}")
    return host, int(port)


def fetch_snapshot(
    address: tuple[str, int], fingerprint: str, timeout: float = 2.0
) -> dict | None:
    """Synchronously fetch the aggregated snapshot for ``fingerprint``.

    Returns ``None`` when the server is unreachable, times out, replies
    with an error, or has no snapshot — warm-start is best-effort by
    design, so all failures collapse to "no warm profile".
    """
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            sock.settimeout(timeout)
            send_message(sock, fetch_message(fingerprint))
            reply = recv_message(sock)
    except (OSError, ProtocolError, ValueError):
        return None
    if reply.get("type") != "snapshot" or not reply.get("found"):
        return None
    snapshot = reply.get("snapshot")
    return snapshot if isinstance(snapshot, dict) else None


class FleetPublisher:
    """Publishes DCG deltas from one VM run to a fleet service."""

    def __init__(
        self,
        address: tuple[str, int],
        program,
        every_ticks: int = 50,
        epoch: int = 0,
        run_id: str | None = None,
        queue_size: int = 64,
        connect_timeout: float = 0.5,
        io_timeout: float = 2.0,
        max_failures: int = 3,
        backoff_base: float = 0.05,
        telemetry=None,
        revive_every: int = 8,
        max_busy_retries: int = 8,
        busy_wait_cap: float = 1.0,
    ):
        if every_ticks < 1:
            raise ValueError("every_ticks must be >= 1")
        if revive_every < 1:
            raise ValueError("revive_every must be >= 1")
        self.address = address
        self.every_ticks = every_ticks
        self.epoch = epoch
        self.run_id = run_id if run_id is not None else os.urandom(8).hex()
        self.telemetry = telemetry
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.max_failures = max_failures
        self.backoff_base = backoff_base
        self.revive_every = revive_every
        self.max_busy_retries = max_busy_retries
        self.busy_wait_cap = busy_wait_cap

        self._names = [f.qualified_name for f in program.functions]
        self._class_names = [c.name for c in program.classes]
        self._fingerprint = program.fingerprint()
        self._sent: dict[tuple[int, int, int], float] = {}
        self._sent_receivers: dict[tuple[int, int, int], int] = {}
        self._sent_paths: dict[tuple[int, int], float] = {}
        self._ticks = 0
        self._seq = 0
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._worker: threading.Thread | None = None

        # Outcome counters (worker-owned except dropped, VM-owned).
        self.batches_enqueued = 0
        self.batches_sent = 0
        self.batches_dropped = 0
        self.edges_sent = 0
        self.busy_backoffs = 0
        self.revivals = 0
        self.server_dead = False

    # -- VM side ------------------------------------------------------------------

    def install(self, vm) -> None:
        """Chain onto the VM's tick hook (after any adaptive system) and
        start the worker thread."""
        vm.chain_tick_hook(self.on_tick)
        self._worker = threading.Thread(
            target=self._run_worker, name="fleet-publisher", daemon=True
        )
        self._worker.start()

    def on_tick(self, vm) -> None:
        self._ticks += 1
        if self._ticks % self.every_ticks == 0:
            self._publish_delta(vm)

    def flush(self, vm) -> None:
        """Enqueue whatever accumulated since the last batch (end of run)."""
        self._publish_delta(vm)

    def _publish_delta(self, vm) -> None:
        profiler = vm.profiler
        dcg = getattr(profiler, "dcg", None) if profiler is not None else None
        if dcg is None:
            return
        sent = self._sent
        delta = []
        grown_weights = {}
        names = self._names
        for edge, weight in dcg.edges().items():
            grown = weight - sent.get(edge, 0.0)
            if grown > 0:
                caller, pc, callee = edge
                delta.append([names[caller], pc, names[callee], grown])
                grown_weights[edge] = weight
        receivers, grown_counts = self._receiver_delta(vm)
        paths, grown_paths = self._paths_delta(vm)
        if not delta and not receivers and not paths:
            return
        seq = self._seq
        self._seq += 1
        try:
            self._queue.put_nowait(("delta", seq, delta, receivers, paths))
            self.batches_enqueued += 1
            # Only mark weights as handed off once the batch is queued,
            # so a dropped batch's growth rides along with the next one.
            sent.update(grown_weights)
            self._sent_receivers.update(grown_counts)
            self._sent_paths.update(grown_paths)
        except queue.Full:
            self.batches_dropped += 1
        if self.telemetry is not None:
            # Span ids are derived (run_id:seq), never random, so traced
            # event streams stay bit-identical across repeated runs.
            self.telemetry.on_fleet_publish(
                vm.time,
                seq,
                len(delta),
                sum(entry[3] for entry in delta),
                trace_id=self.run_id,
                span_id=f"{self.run_id}:{seq}",
            )

    def _receiver_delta(self, vm) -> tuple[list, dict]:
        """Growth of the inline caches' receiver cells since last handoff.

        Returns ``(wire rows, grown counts)``; rows are symbolic
        ``[caller name, pc, class name, grown]`` so the aggregate
        outlives any single build, exactly like DCG edges.  VMs running
        with inline caches off simply publish no receiver rows.
        """
        cells = getattr(getattr(vm, "code_cache", None), "receiver_cells", None)
        if not cells:
            return [], {}
        sent = self._sent_receivers
        names = self._names
        class_names = self._class_names
        rows = []
        grown_counts = {}
        for (caller, pc), classes in cells.items():
            for rclass, cell in classes.items():
                count = cell[0]
                key = (caller, pc, rclass)
                grown = count - sent.get(key, 0)
                if grown > 0:
                    rows.append([names[caller], pc, class_names[rclass], grown])
                    grown_counts[key] = count
        return rows, grown_counts

    def _paths_delta(self, vm) -> tuple[list, dict]:
        """Growth of the path tracker's profile since last handoff.

        Wire rows are symbolic ``[function name, path_id, grown]`` (see
        :mod:`repro.profiling.paths`); VMs running without a path
        tracker publish no path rows.
        """
        tracker = getattr(vm, "path_tracker", None)
        if tracker is None:
            return [], {}
        sent = self._sent_paths
        names = self._names
        rows = []
        grown_counts = {}
        for (function, pid), count in tracker.profile.counts.items():
            key = (function, pid)
            grown = count - sent.get(key, 0.0)
            if grown > 0:
                rows.append([names[function], pid, grown])
                grown_counts[key] = count
        return rows, grown_counts

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker, waiting up to ``timeout`` for the queue to
        drain.  Never raises; the worker is a daemon either way."""
        if self._worker is None:
            return
        try:
            self._queue.put_nowait(_CLOSE)
        except queue.Full:
            pass  # worker is far behind; daemon thread dies with the process
        self._worker.join(timeout)
        self._worker = None
        if self.telemetry is not None:
            # Metrics only, no event: outcome counters are wall-clock
            # facts about the worker thread, not virtual-time events.
            self.telemetry.on_fleet_outcome(
                self.batches_sent,
                self.batches_dropped,
                self.edges_sent,
                self.server_dead,
            )

    # -- worker side --------------------------------------------------------------

    def _run_worker(self) -> None:
        sock = None
        failures = 0
        dead_drops = 0
        try:
            while True:
                item = self._queue.get()
                if item is _CLOSE:
                    break
                _, seq, delta, receivers, paths = item
                if self.server_dead:
                    # Bounded revival: drop most batches cheaply, but
                    # every revive_every-th one spends a single probe
                    # so a restarted server regains this publisher.
                    dead_drops += 1
                    if dead_drops % self.revive_every != 0:
                        self.batches_dropped += 1
                        continue
                    sock = self._probe()
                    if sock is None:
                        self.batches_dropped += 1
                        continue
                    self.server_dead = False
                    self.revivals += 1
                    failures = 0
                    dead_drops = 0
                sock, status = self._send_with_retry(
                    sock, seq, delta, receivers, paths
                )
                if status == "ack":
                    failures = 0
                    self.batches_sent += 1
                    self.edges_sent += len(delta)
                elif status == "busy":
                    # The server answered: alive, just loaded.  The
                    # batch is lost (retries exhausted) but this is
                    # backpressure, not failure.
                    failures = 0
                    self.batches_dropped += 1
                else:
                    failures += 1
                    self.batches_dropped += 1
                    if failures >= self.max_failures:
                        self.server_dead = True
        finally:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass

    def _send_with_retry(
        self, sock, seq: int, delta: list, receivers: list, paths: list
    ):
        """Try to deliver one batch; returns ``(socket, status)``.

        ``status`` is ``"ack"`` (delivered), ``"busy"`` (the server
        applied backpressure through ``max_busy_retries`` resends —
        alive but loaded), or ``"fail"`` (connection-level failure,
        counts toward dead-server detection).
        """
        message = publish_message(
            self._fingerprint,
            delta,
            run_id=self.run_id,
            seq=seq,
            epoch=self.epoch,
            receivers=receivers,
            paths=paths,
            trace_id=self.run_id,
            span_id=f"{self.run_id}:{seq}",
        )
        busy_retries = 0
        for attempt in range(2):  # current connection, then one reconnect
            if sock is None:
                sock = self._connect()
                if sock is None:
                    return None, "fail"
            try:
                send_message(sock, message)
                reply = recv_message(sock)
                while reply.get("type") == "busy":
                    if busy_retries >= self.max_busy_retries:
                        return sock, "busy"
                    busy_retries += 1
                    self.busy_backoffs += 1
                    time.sleep(self._retry_after(reply))
                    send_message(sock, message)
                    reply = recv_message(sock)
                if reply.get("type") == "ack":
                    return sock, "ack"
                return sock, "fail"
            except (OSError, ProtocolError):
                try:
                    sock.close()
                except OSError:
                    pass
                sock = None
        return None, "fail"

    def _retry_after(self, reply: dict) -> float:
        """The server's requested backoff, clamped to sane bounds."""
        try:
            retry_after = float(reply.get("retry_after", self.backoff_base))
        except (TypeError, ValueError):
            retry_after = self.backoff_base
        return min(max(retry_after, 0.001), self.busy_wait_cap)

    def _connect(self):
        delay = self.backoff_base
        for attempt in range(self.max_failures):
            try:
                sock = socket.create_connection(
                    self.address, timeout=self.connect_timeout
                )
                sock.settimeout(self.io_timeout)
                return sock
            except OSError:
                if attempt + 1 < self.max_failures:
                    time.sleep(delay)
                    delay *= 2
        self.server_dead = True
        return None

    def _probe(self):
        """One revival attempt: a single connect, no backoff loop."""
        try:
            sock = socket.create_connection(
                self.address, timeout=self.connect_timeout
            )
            sock.settimeout(self.io_timeout)
            return sock
        except OSError:
            return None

    # -- reporting ----------------------------------------------------------------

    def describe(self) -> str:
        state = "dead" if self.server_dead else "ok"
        return (
            f"fleet publisher: {self.batches_sent} batches "
            f"({self.edges_sent} edges) sent, {self.batches_dropped} dropped, "
            f"server {state}"
        )
