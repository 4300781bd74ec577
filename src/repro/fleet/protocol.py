"""The fleet wire protocol: length-prefixed, versioned JSON messages.

Every message on the wire is one *frame*: a 4-byte big-endian unsigned
length followed by that many bytes of UTF-8 JSON encoding a single
object.  Every object carries ``"v"`` (protocol version) and ``"type"``
(message kind).  Frames are small (deltas, not whole profiles) and
bounded by :data:`MAX_MESSAGE_BYTES`; anything larger, truncated
mid-frame, or non-JSON raises :class:`ProtocolError` — the server drops
the connection, never its repository.

Message kinds
-------------

Client → server:

* ``publish`` — one DCG delta for one program::

      {"v": 1, "type": "publish", "fingerprint": "<sha256>",
       "run_id": "<opaque>", "seq": 0, "epoch": 0,
       "edges": [["Caller.name", pc, "Callee.name", weight], ...],
       "receivers": [["Caller.name", pc, "ClassName", count], ...],
       "trace_id": "<run id>", "span_id": "<run id>:<seq>"}

  ``epoch`` is the client's profile age (newer epochs dominate under
  decay; see :mod:`repro.fleet.merge`); ``seq`` numbers the deltas of
  one run for diagnostics.  ``receivers`` is optional: the exact
  per-site receiver-class counts the VM's inline caches accumulated
  since the last delta (see :mod:`repro.profiling.receivers`), keyed
  symbolically like edges so aggregates outlive any single build.
  ``paths`` is likewise optional: Ball-Larus path-profile rows
  (``[function, path_id, count]``, see :mod:`repro.profiling.paths`)
  merged with the same decay and commutativity guarantees.
  ``trace_id``/``span_id`` are optional trace-span coordinates: when a
  publisher stamps them, the server echoes them into its own telemetry
  (``fleet_merge`` events) so the client's and server's offline traces
  stitch into one cross-process timeline (see docs/OBSERVABILITY.md).
  Old servers ignore the keys; old clients simply never send them.

* ``fetch`` — request the aggregated snapshot for a fingerprint.
* ``stats`` — request server-wide counters.
* ``flush`` — force staged deltas to merge and dirty aggregates to
  persist before the reply: the durability barrier (everything acked
  before it is on disk when the ``stats`` reply arrives).

Server → client:

* ``ack`` — publish accepted: validated and staged (``"staged":
  true`` plus the staging queue depth), visible to every later
  ``fetch``.  The merge and the snapshot write happen behind the ack —
  merge commutativity guarantees the eventual aggregate is identical,
  so early acks are safe; ``flush``, connection close and service
  shutdown are the durability barriers.
* ``busy`` — publish rejected for load, not content:
  ``{"retry_after": seconds}``.  The client must back off and retry;
  the delta was *not* staged.  Emitted when a per-client token bucket
  is exhausted or the staging buffer is at its high-water mark.
* ``snapshot`` — fetch reply: ``{"found": bool, "snapshot": {...}|null}``
  where the snapshot is a version-2 profile dict (see
  :mod:`repro.profiling.serialize`) plus a ``"fleet"`` metadata key.
* ``stats`` — server counters.
* ``error`` — the request was malformed or of an unknown kind:
  ``{"reason": "..."}``.

Both asyncio-stream and blocking-socket helpers are provided; the VM
side publishes from a plain thread (it must never touch the VM's loop),
while the server is a single asyncio process.
"""

from __future__ import annotations

import json
import socket
import struct

PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload.  A delta for even a large DCG is
#: a few hundred KB; anything bigger is garbage or abuse.
MAX_MESSAGE_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """A frame or message violated the wire protocol."""


# -- message constructors ---------------------------------------------------------


def publish_message(
    fingerprint: str,
    edges: list,
    run_id: str,
    seq: int = 0,
    epoch: int = 0,
    receivers: list | None = None,
    paths: list | None = None,
    trace_id: str | None = None,
    span_id: str | None = None,
) -> dict:
    message = {
        "v": PROTOCOL_VERSION,
        "type": "publish",
        "fingerprint": fingerprint,
        "run_id": run_id,
        "seq": seq,
        "epoch": epoch,
        "edges": edges,
    }
    if receivers:
        message["receivers"] = receivers
    if paths:
        message["paths"] = paths
    if span_id is not None:
        message["trace_id"] = trace_id
        message["span_id"] = span_id
    return message


def fetch_message(fingerprint: str) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "fetch", "fingerprint": fingerprint}


def stats_message() -> dict:
    return {"v": PROTOCOL_VERSION, "type": "stats"}


def flush_message() -> dict:
    return {"v": PROTOCOL_VERSION, "type": "flush"}


def staged_ack_message(depth: int) -> dict:
    """The publish ack: validated and staged, merge pending."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "ack",
        "staged": True,
        "queue_depth": depth,
    }


def busy_message(retry_after: float) -> dict:
    """Backpressure reject: try again in ``retry_after`` seconds."""
    return {
        "v": PROTOCOL_VERSION,
        "type": "busy",
        "retry_after": round(float(retry_after), 4),
    }


def snapshot_message(snapshot: dict | None) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "type": "snapshot",
        "found": snapshot is not None,
        "snapshot": snapshot,
    }


def error_message(reason: str) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "error", "reason": reason}


# -- framing ----------------------------------------------------------------------


def encode_message(message: dict) -> bytes:
    """Frame ``message`` (which must already carry ``v``/``type``)."""
    payload = json.dumps(message, separators=(",", ":")).encode()
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message too large ({len(payload)} bytes)")
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse and validate one frame's payload."""
    try:
        message = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable message: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("message is not a JSON object")
    if message.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {message.get('v')!r} "
            f"(expected {PROTOCOL_VERSION})"
        )
    if not isinstance(message.get("type"), str):
        raise ProtocolError("message has no type")
    return message


def _check_length(length: int) -> None:
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame too large ({length} bytes)")


_FP_MARKER = b'"fingerprint":"'


def extract_fingerprint(payload: bytes) -> str | None:
    """The ``fingerprint`` field of a framed payload, without a parse.

    Fast path: scan for the raw ``"fingerprint":"`` key bytes.  In any
    valid JSON document those fifteen bytes can only appear as key
    syntax — a quote inside a string value is always escaped as
    ``\\"`` — so the first hit is the first ``fingerprint`` key, which
    for every message our clients encode is the top-level one.  A
    candidate containing an escape, or a payload with no hit, falls
    back to a full parse; undecodable payloads yield ``None``.

    No serving path calls this: it stays because the measurement spine
    (``benchmarks/perf``) times it, until that is re-cut.
    """
    start = payload.find(_FP_MARKER)
    if start >= 0:
        begin = start + len(_FP_MARKER)
        end = payload.find(b'"', begin)
        if end >= 0:
            candidate = payload[begin:end]
            if b"\\" not in candidate:
                return candidate.decode("utf-8", "replace")
    try:
        message = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(message, dict):
        return None
    fingerprint = message.get("fingerprint")
    return fingerprint if isinstance(fingerprint, str) else None


# -- asyncio streams (server side) ------------------------------------------------


async def read_message(reader) -> dict | None:
    """Read one frame from an asyncio stream reader.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`ProtocolError` for truncation mid-frame, oversized frames,
    or undecodable payloads.
    """
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection closed mid-header") from error
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame") from error
    return decode_payload(payload)


async def write_message(writer, message: dict) -> None:
    writer.write(encode_message(message))
    await writer.drain()


# -- blocking sockets (client side) -----------------------------------------------


def send_message(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_message(message))


def recv_message(sock: socket.socket) -> dict:
    """Read one frame from a blocking socket (honors its timeout)."""
    header = _recv_exactly(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    return decode_payload(_recv_exactly(sock, length))


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
