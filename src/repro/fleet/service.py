"""The fleet aggregation service.

One asyncio process serves many concurrent VM publishers.  Each
connection is a sequence of frames (see :mod:`repro.fleet.protocol`);
``publish`` deltas are folded into per-fingerprint
:class:`~repro.fleet.merge.AggregateProfile` instances (loaded lazily
from the repository).

There is one publish path.  The accept path only validates the delta,
appends it to a bounded :class:`~repro.fleet.staging.StagingBuffer`,
and acks (``staged: true``).  A background drain task coalesces each
fingerprint's staged deltas into per-epoch lumps
(:func:`~repro.fleet.merge.coalesce_validated`) and merges them in one
pass — by merge commutativity the eventual aggregate is identical to
one-at-a-time merging, so early acks are safe.  A ``fetch`` merges that
fingerprint's staged deltas first, so every ack is visible to every
later fetch.

Snapshots are written behind the ack, off the event loop: a second
background task clones dirty aggregates on-loop
(:meth:`~repro.fleet.merge.AggregateProfile.clone_for_snapshot`) and
serializes + atomically writes them in a worker thread, then rests for
:data:`SNAPSHOT_PACE` times what the pass cost, so the writer thread's
share of the interpreter lock stays bounded however many aggregates are
dirty.  What is *durable* when: a ``flush`` reply, a closed connection,
and a stopped service (SIGINT, SIGTERM, :meth:`FleetService.stop`) each
mean everything acked before them is merged and on disk
(:meth:`FleetService.drain`, which bypasses the pacing).

Backpressure: with a per-client rate limit configured (``rate``), or
when the staging buffer hits its high-water mark, a publish is answered
with ``busy`` and a ``retry_after`` the client honors with backoff —
load never silently drops deltas and never kills connections.

Because merging is synchronous (no ``await`` between taking deltas and
folding them in) the event loop serializes merges per process, and
because the merge itself is order-independent (see
:mod:`repro.fleet.merge`) the aggregate any client observes is a pure
function of the set of published deltas.

A client that violates the protocol gets an ``error`` reply when the
stream is still decodable, otherwise its connection is dropped; the
repository only ever sees complete, validated deltas, so a client
killed mid-frame cannot corrupt anything.

The service also keeps a :class:`~repro.telemetry.metrics.MetricsRegistry`
of its own counters and per-client publish accounting (drops are
inferred from gaps in each run's ``seq`` numbers, since publishers
number every enqueue attempt — even dropped ones).  ``serve
--http-port`` mounts :class:`~repro.telemetry.httpapi.ObservabilityHTTP`
on the same event loop, exposing the registry at ``/metrics`` and
:meth:`FleetService.status` at ``/status``.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal

from repro.fleet.merge import (
    AggregateProfile,
    MergeError,
    MergePolicy,
    coalesce_validated,
)
from repro.fleet.protocol import (
    ProtocolError,
    busy_message,
    error_message,
    read_message,
    snapshot_message,
    staged_ack_message,
    write_message,
)
from repro.fleet.repository import ProfileRepository, RepositoryError
from repro.fleet.staging import RateLimiter, StagingBuffer
from repro.telemetry.metrics import MetricsRegistry

#: Histogram bounds for edges-per-delta: deltas are small by design, so
#: the buckets resolve the interesting low end.
DELTA_EDGE_BUCKETS = (1, 4, 16, 64, 256, 1024)

#: After a background snapshot pass the writer rests this many times the
#: pass's own wall-clock cost, which bounds the writer thread to
#: 1/(1 + SNAPSHOT_PACE) of the process however large the repository is.
SNAPSHOT_PACE = 9

#: How long a stop gives open connections to finish at each step of
#: :func:`close_server` (hang up, abort, cancel).
HANGUP_TIMEOUT = 2.0


def track_connection(handlers: dict, server, writer) -> None:
    """Record the calling handler task's connection in ``handlers``
    (task → writer) until the task ends, for :func:`close_server`."""
    task = asyncio.current_task()
    handlers[task] = writer
    task.add_done_callback(handlers.pop)
    if server is None or not server.is_serving():
        writer.close()  # accepted while close_server() was hanging up


async def close_server(server, handlers: dict) -> None:
    """Close the listener, hang up on every tracked client, and wait —
    for a bounded time — until each handler has read EOF and left
    through its own ``finally`` (its durability barrier).  Python >=
    3.12's ``wait_closed()`` waits for open connections, so without the
    hang-up a stop lasts as long as the slowest client stays."""

    async def stragglers():
        if not handlers:
            return ()
        return (await asyncio.wait(list(handlers), timeout=HANGUP_TIMEOUT))[1]

    server.close()
    for writer in handlers.values():
        writer.close()
    # close() flushes buffered replies first, which a client that
    # stopped reading never lets finish: abort those transports.
    for task in await stragglers():
        handlers[task].transport.abort()
    # Still here: waiting on something other than its client (a barrier
    # whose snapshot write is stuck).  Cancel it, and whatever survives
    # that too is left to loop teardown — the caller's stop goes on.
    for task in await stragglers():
        task.cancel()
    await stragglers()
    await server.wait_closed()


class FleetService:
    """Aggregates published DCG deltas and serves snapshots."""

    def __init__(
        self,
        repository: ProfileRepository,
        telemetry=None,
        registry: MetricsRegistry | None = None,
        rate: float | None = None,
        burst: float | None = None,
        max_staged_rows: int = 200_000,
        drain_interval: float = 0.005,
    ):
        self.repository = repository
        self.telemetry = telemetry
        self.aggregates: dict[str, AggregateProfile] = {}
        self.merges = 0
        self.publishes_rejected = 0
        self.busy_rejections = 0
        self.connections = 0
        #: Per-run publish accounting, keyed by the client's ``run_id``.
        self.clients: dict[str, dict] = {}
        #: Fingerprints seen: on disk when the service was built, plus
        #: every one aggregated since (the ``fleet.programs`` gauge).
        self._programs: set[str] = set(repository.fingerprints())
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None
        #: Open connections: each handler task and the writer it serves.
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}

        self.drain_interval = drain_interval
        self.staging = StagingBuffer(max_staged_rows)
        self.limiter = RateLimiter(rate, burst) if rate else None
        #: Fingerprints merged but not yet snapshotted by the writer.
        self._dirty: set[str] = set()
        self._drain_task: asyncio.Task | None = None
        self._drain_wakeup = asyncio.Event()
        self._snapshot_task: asyncio.Task | None = None
        self._snapshot_wakeup = asyncio.Event()
        self._persist_lock = asyncio.Lock()

        #: Registry behind ``/metrics`` (names render Prometheus-style,
        #: e.g. ``fleet.publishes`` → ``fleet_publishes_total``).
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_publishes = self.registry.counter(
            "fleet.publishes", "publish deltas accepted (validated and staged)"
        )
        self._m_rejected = self.registry.counter(
            "fleet.rejected", "publish deltas rejected (malformed or unmergeable)"
        )
        self._m_fetches = self.registry.counter(
            "fleet.fetches", "snapshot fetch requests served"
        )
        self._m_connections = self.registry.counter(
            "fleet.connections", "client connections accepted"
        )
        self._m_active = self.registry.gauge(
            "fleet.active_connections", "client connections currently open"
        )
        self._m_edges = self.registry.counter(
            "fleet.edges_merged", "DCG edges folded into aggregates"
        )
        self._m_dropped = self.registry.counter(
            "fleet.client_drops", "client-side drops inferred from seq gaps"
        )
        self._m_programs = self.registry.gauge(
            "fleet.programs", "distinct program fingerprints aggregated"
        )
        self._m_programs.set(len(self._programs))
        self._m_delta_edges = self.registry.histogram(
            "fleet.delta_edges", DELTA_EDGE_BUCKETS, "edges per published delta"
        )
        self._m_staged = self.registry.counter(
            "fleet.staged", "publish deltas staged for coalesced merging"
        )
        self._m_lumps = self.registry.counter(
            "fleet.coalesced_lumps", "coalesced merge lumps applied"
        )
        self._m_coalesced = self.registry.counter(
            "fleet.coalesced_deltas", "publish deltas absorbed by coalesced lumps"
        )
        self._m_queue_depth = self.registry.gauge(
            "fleet.queue_depth", "publish deltas currently staged"
        )
        self._m_busy = self.registry.counter(
            "fleet.busy", "publishes rejected with busy backpressure"
        )
        self._m_persist_writes = self.registry.counter(
            "fleet.persist_writes", "snapshot files written"
        )
        self._m_persist_pending = self.registry.gauge(
            "fleet.persist_pending", "dirty aggregates awaiting a snapshot write"
        )

    # -- lifecycle ----------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(self._handle, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain_loop())
            self._snapshot_task = asyncio.ensure_future(self._snapshot_loop())
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            await close_server(self._server, self._handlers)
            self._server = None
        tasks = [t for t in (self._drain_task, self._snapshot_task) if t is not None]
        # Cancel under the persist lock: a snapshot pass holds it, so the
        # writer is never cancelled with a store still running in its
        # thread (which could land after, and over, the final drain's).
        async with self._persist_lock:
            for task in tasks:
                task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._drain_task = self._snapshot_task = None
        await self.drain()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def drain(self) -> None:
        """Merge everything staged and persist every dirty aggregate.

        The durability barrier behind ``flush`` messages, connection
        close and shutdown; it does not wait out the writer's pacing.
        """
        self._merge_staged()
        await self._write_dirty()

    # -- background draining ------------------------------------------------------

    async def _drain_loop(self) -> None:
        """Background task: wake on staged deltas and merge them.

        The short sleep after a wakeup is the coalescing window — it
        lets a burst of publishes accumulate so one lump absorbs many
        deltas instead of merging them singly.
        """
        while True:
            await self._drain_wakeup.wait()
            if self.drain_interval > 0:
                await asyncio.sleep(self.drain_interval)
            self._drain_wakeup.clear()
            self._merge_staged()

    async def _snapshot_loop(self) -> None:
        """Background task: write dirty aggregates, paced by their cost."""
        loop = asyncio.get_running_loop()
        while True:
            await self._snapshot_wakeup.wait()
            self._snapshot_wakeup.clear()
            started = loop.time()
            await self._write_dirty()
            await asyncio.sleep(SNAPSHOT_PACE * (loop.time() - started))

    def _merge_staged(self) -> None:
        """Coalesce and merge every staged delta (synchronous, on-loop)."""
        for fingerprint, deltas, run_ids, count in self.staging.take_all():
            self._merge_lump(fingerprint, deltas, run_ids, count)
        self._m_queue_depth.set(len(self.staging))

    def _merge_one(self, fingerprint: str) -> None:
        """Drain one fingerprint's staged deltas (the fetch barrier)."""
        taken = self.staging.take_one(fingerprint)
        if taken is not None:
            deltas, run_ids, count = taken
            self._merge_lump(fingerprint, deltas, run_ids, count)
            self._m_queue_depth.set(len(self.staging))

    def _merge_lump(self, fingerprint: str, deltas, run_ids, count: int) -> None:
        aggregate = self._aggregate_for(fingerprint)
        aggregate.merge_coalesced(
            coalesce_validated(deltas), run_ids=run_ids, publishes=count
        )
        self.merges += count
        self._m_lumps.inc()
        self._m_coalesced.inc(count)
        self._dirty.add(fingerprint)
        self._m_persist_pending.set(len(self._dirty))
        self._snapshot_wakeup.set()
        spans = self.staging.take_spans(fingerprint)
        if spans:
            # One merge event per absorbed delta, each closing the flow
            # its publisher opened; totals are the lump's, post-merge.
            runs, total_weight = aggregate.runs, aggregate.total_weight
            for trace_id, span_id, edge_count in spans:
                self.telemetry.on_fleet_merge(
                    fingerprint, edge_count, runs, total_weight,
                    trace_id=trace_id, span_id=span_id,
                )

    async def _write_dirty(self) -> None:
        """Snapshot the aggregates that are dirty now, off the event loop.

        One sweep: what a merge re-dirties behind the sweep waits for
        the next pass, so a pass ends under any load.  Clones are taken
        on-loop (cheap shallow dict copies) and the sort/serialize/
        atomic-rename runs in a thread; the lock keeps concurrent
        passes (a barrier vs. the snapshot task) from writing the same
        fingerprint twice in flight, and makes a barrier wait out a
        pass that already holds part of what it must see written.
        """
        async with self._persist_lock:
            for fingerprint in list(self._dirty):
                self._dirty.discard(fingerprint)
                self._m_persist_pending.set(len(self._dirty))
                clone = self.aggregates[fingerprint].clone_for_snapshot()
                await asyncio.to_thread(self.repository.store, clone)
                self._m_persist_writes.inc()

    # -- connection handling ------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        self.connections += 1
        self._m_connections.inc()
        self._m_active.inc()
        track_connection(self._handlers, self._server, writer)
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError:
                    # Undecodable stream (truncated frame, garbage):
                    # nothing sensible to reply to — drop the connection.
                    break
                if message is None:
                    break
                reply = await self._dispatch(message)
                try:
                    await write_message(writer, reply)
                except (ConnectionError, OSError):
                    break
        finally:
            # Connection close is a durability barrier: a client that
            # dies must not leave acked state only in memory.
            self._m_active.dec()
            await self.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, message: dict) -> dict:
        kind = message["type"]
        if kind == "publish":
            return self._on_publish(message)
        if kind == "fetch":
            return self._on_fetch(message)
        if kind == "stats":
            return self._on_stats()
        if kind == "flush":
            await self.drain()
            return self._on_stats()
        return error_message(f"unknown message type {kind!r}")

    # -- message handlers ---------------------------------------------------------

    def _aggregate_for(self, fingerprint: str) -> AggregateProfile:
        aggregate = self.aggregates.get(fingerprint)
        if aggregate is None:
            aggregate = self.repository.load(fingerprint)
            if aggregate is None:
                aggregate = AggregateProfile(fingerprint, self.repository.policy)
            self.aggregates[fingerprint] = aggregate
            self._programs.add(fingerprint)
            self._m_programs.set(len(self._programs))
        return aggregate

    def _reject(self, reason: str) -> dict:
        self.publishes_rejected += 1
        self._m_rejected.inc()
        return error_message(reason)

    def _account_client(self, message: dict, edge_count: int, epoch: int) -> None:
        """Fold one accepted publish into the per-run accounting.

        Publishers number every enqueue attempt, including batches their
        bounded queue dropped, so a gap between consecutive ``seq``
        values (or a first ``seq`` above zero) is exactly the number of
        deltas this run lost before they reached the wire.
        """
        run_id = message.get("run_id")
        if not isinstance(run_id, str):
            return
        client = self.clients.get(run_id)
        if client is None:
            client = self.clients[run_id] = {
                "publishes": 0,
                "edges": 0,
                "last_seq": None,
                "dropped": 0,
                "epoch": epoch,
            }
        seq = message.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            expected = 0 if client["last_seq"] is None else client["last_seq"] + 1
            if seq > expected:
                gap = seq - expected
                client["dropped"] += gap
                self._m_dropped.inc(gap)
            if client["last_seq"] is None or seq > client["last_seq"]:
                client["last_seq"] = seq
        client["publishes"] += 1
        client["edges"] += edge_count
        client["epoch"] = epoch

    def _on_publish(self, message: dict) -> dict:
        """The accept path: admit, validate, stage, ack.

        Validation happens here — synchronously, so a malformed delta
        is rejected in its own reply — but the merge is deferred to the
        drain task.  Both backpressure checks precede row validation: a
        ``busy`` reply means the delta was *not* staged and the client
        must retry it.
        """
        fingerprint = message.get("fingerprint")
        edges = message.get("edges")
        receivers = message.get("receivers")
        paths = message.get("paths")
        if not isinstance(fingerprint, str) or not isinstance(edges, list):
            return self._reject("publish needs a fingerprint and an edge list")
        if receivers is not None and not isinstance(receivers, list):
            return self._reject("receivers must be a list when present")
        if paths is not None and not isinstance(paths, list):
            return self._reject("paths must be a list when present")
        try:
            epoch = int(message.get("epoch", 0))
        except (TypeError, ValueError):
            return self._reject("epoch must be an integer")
        try:
            # An ack promises a snapshot; refuse what cannot be stored.
            self.repository.path_for(fingerprint)
        except RepositoryError as error:
            return self._reject(str(error))
        if self.limiter is not None:
            retry_after = self.limiter.check(message.get("run_id"))
            if retry_after > 0.0:
                self.busy_rejections += 1
                self._m_busy.inc()
                return busy_message(retry_after)
        if self.staging.full:
            self._drain_wakeup.set()
            self.busy_rejections += 1
            self._m_busy.inc()
            return busy_message(0.05)
        try:
            validated_edges = [
                (key, weight)
                for key, weight in (
                    AggregateProfile._validate_row(entry, "edge") for entry in edges
                )
                if weight
            ]
            validated_receivers = [
                (key, count)
                for key, count in (
                    AggregateProfile._validate_row(entry, "receiver row")
                    for entry in receivers or ()
                )
                if count
            ]
            validated_paths = [
                (key, count)
                for key, count in (
                    AggregateProfile._validate_path_row(entry, "path row")
                    for entry in paths or ()
                )
                if count
            ]
        except MergeError as error:
            return self._reject(str(error))
        span = None
        if self.telemetry is not None:
            span = (message.get("trace_id"), message.get("span_id"), len(edges))
        depth = self.staging.stage(
            fingerprint,
            epoch,
            validated_edges,
            validated_receivers,
            validated_paths,
            message.get("run_id"),
            span,
        )
        self._m_publishes.inc()
        self._m_staged.inc()
        self._m_edges.inc(len(edges))
        self._m_delta_edges.observe(len(edges))
        self._m_queue_depth.set(depth)
        self._account_client(message, len(edges), epoch)
        self._drain_wakeup.set()
        return staged_ack_message(depth)

    def _on_fetch(self, message: dict) -> dict:
        self._m_fetches.inc()
        fingerprint = message.get("fingerprint")
        if not isinstance(fingerprint, str):
            return error_message("fetch needs a fingerprint")
        # Read-your-writes: a fetch observes everything this service
        # has acked for the fingerprint, staged or merged.
        self._merge_one(fingerprint)
        try:
            aggregate = self.aggregates.get(fingerprint) or self.repository.load(
                fingerprint
            )
        except RepositoryError as error:
            return error_message(str(error))
        if aggregate is None or len(aggregate) == 0:
            return snapshot_message(None)
        return snapshot_message(aggregate.to_dict())

    def _on_stats(self) -> dict:
        return {
            "v": 1,
            "type": "stats",
            "programs": sorted(
                set(self.aggregates) | set(self.repository.fingerprints())
            ),
            "merges": self.merges,
            "rejected": self.publishes_rejected,
            "busy": self.busy_rejections,
            "staged": len(self.staging),
            "coalesce_ratio": self.staging.coalesce_ratio(),
            "connections": self.connections,
            "quarantined": self.repository.quarantined,
            "clients": len(self.clients),
            "client_drops": sum(c["dropped"] for c in self.clients.values()),
        }

    # -- observability ---------------------------------------------------------------

    def status(self) -> dict:
        """The ``/status`` document: aggregates, clients, and totals.

        Everything here is computed from in-memory state the event loop
        already owns, so serving it cannot block or perturb merging.
        """
        programs = {}
        for fingerprint in sorted(set(self.aggregates) | set(self.repository.fingerprints())):
            aggregate = self.aggregates.get(fingerprint)
            if aggregate is None:
                programs[fingerprint] = {"loaded": False}
                continue
            programs[fingerprint] = {
                "loaded": True,
                "edges": len(aggregate),
                "runs": aggregate.runs,
                "total_weight": round(aggregate.total_weight, 6),
                "epoch": aggregate.epoch,
                "publishes": aggregate.publishes,
            }
        clients = {}
        for run_id, entry in sorted(self.clients.items()):
            attempts = entry["publishes"] + entry["dropped"]
            clients[run_id] = {
                "publishes": entry["publishes"],
                "edges": entry["edges"],
                "last_seq": entry["last_seq"],
                "epoch": entry["epoch"],
                "dropped": entry["dropped"],
                "drop_rate": round(entry["dropped"] / attempts, 6) if attempts else 0.0,
            }
        return {
            "service": "repro-fleet",
            "programs": programs,
            "clients": clients,
            "totals": {
                "merges": self.merges,
                "rejected": self.publishes_rejected,
                "busy": self.busy_rejections,
                "connections": self.connections,
                "quarantined": self.repository.quarantined,
                "client_drops": sum(c["dropped"] for c in self.clients.values()),
            },
            "staging": {
                "queue_depth": len(self.staging),
                "staged_rows": self.staging.staged_rows,
                "coalesce_ratio": self.staging.coalesce_ratio(),
                "busy_rejections": self.busy_rejections,
                "persist_pending": len(self._dirty),
            },
        }


@contextlib.contextmanager
def sigterm_cancels_task():
    """While active, SIGTERM cancels the calling task.

    ``asyncio.run`` already turns SIGINT into a cancellation of the main
    task; this gives ``kill <pid>`` the same graceful path, so a serve
    loop's ``finally`` (stop → drain) runs either way.  A no-op where
    signal handlers cannot be installed (off the main thread, Windows).
    """
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
        installed = True
    except (NotImplementedError, RuntimeError, ValueError):
        installed = False
    try:
        yield
    finally:
        if installed:
            loop.remove_signal_handler(signal.SIGTERM)


async def run_service(
    root: str,
    host: str = "127.0.0.1",
    port: int = 0,
    decay: float = 1.0,
    max_edges: int | None = None,
    ready=None,
    http_port: int | None = None,
    http_ready=None,
    telemetry=None,
    rate: float | None = None,
    burst: float | None = None,
) -> None:
    """Run the fleet service until cancelled: the ``serve`` CLI backend.

    ``ready``, if given, is called with the bound ``(host, port)`` once
    the socket is listening — used for readiness lines and tests.
    ``http_port``, if given, additionally mounts the observability
    listener (``/metrics``, ``/healthz``, ``/status``) on the same event
    loop; ``http_ready`` is called with its bound address.
    ``rate``/``burst`` enable the per-client token-bucket backpressure.
    Cancellation (SIGINT, SIGTERM) stops the service through
    :meth:`FleetService.stop`, so nothing acked is lost.
    """
    from repro.telemetry.httpapi import ObservabilityHTTP

    repository = ProfileRepository(
        root, MergePolicy(decay=decay, max_edges=max_edges)
    )
    service = FleetService(repository, telemetry=telemetry, rate=rate, burst=burst)
    http = None
    await service.start(host, port)
    if ready is not None:
        ready(service.address)
    try:
        with sigterm_cancels_task():
            if http_port is not None:
                http = ObservabilityHTTP(
                    registry=service.registry,
                    status_fn=service.status,
                    health_fn=lambda: {"status": "ok", "service": "repro-fleet"},
                )
                await http.start(host, http_port)
                if http_ready is not None:
                    http_ready(http.address)
            await service.serve_forever()
    finally:
        if http is not None:
            await http.stop()
        await service.stop()
