"""Coalesced-merge equivalence: staging must never change the answer.

The service has one publish path — stage, ack, merge coalesced lumps
behind the ack — and its correctness is held against a *library*
reference: :meth:`AggregateProfile.merge_delta` applied one delta at a
time (``eager_merge`` below).  The argument rests on one algebraic fact: the
scale a delta receives depends only on its own epoch stamp and the
final maximum epoch, never on arrival order, so summing same-epoch
rows *before* scaling distributes over the merge.  These tests hold
that property bit-exactly — seeded random delta streams, every
partition into coalesced lumps, byte-identical persisted snapshots —
for integral weights under decay 1.0 and 0.5 (exact in binary
floating point).  The streams carry Ball-Larus path rows as an older
client sent them; the service tests publish them and the reference
never sees them, so byte identity also proves they are ignored.
"""

import asyncio
import json
import random

from repro.fleet.merge import (
    AggregateProfile,
    MergePolicy,
    coalesce_validated,
    validate_rows,
)
from repro.fleet.protocol import (
    fetch_message,
    flush_message,
    publish_message,
    read_message,
    write_message,
)
from repro.fleet.repository import ProfileRepository
from repro.fleet.service import FleetService

FP = "ab" * 32


def random_stream(rng, deltas: int, epochs: int = 3):
    """A seeded delta stream in wire shape: integer weights, small key pool."""
    stream = []
    for index in range(deltas):
        edges = [
            [f"f{rng.randrange(6)}", rng.randrange(4), f"g{rng.randrange(6)}",
             float(rng.randrange(1, 10))]
            for _ in range(rng.randrange(1, 5))
        ]
        receivers = [
            [f"f{rng.randrange(6)}", rng.randrange(4), f"C{rng.randrange(3)}",
             float(rng.randrange(1, 5))]
            for _ in range(rng.randrange(0, 3))
        ]
        paths = [
            [f"f{rng.randrange(6)}", rng.randrange(8), float(rng.randrange(1, 5))]
            for _ in range(rng.randrange(0, 3))
        ]
        stream.append(
            (edges, receivers, paths, rng.randrange(epochs), f"run-{index % 7}")
        )
    return stream


def eager_merge(stream, policy):
    aggregate = AggregateProfile(FP, policy)
    for edges, receivers, _paths, epoch, run_id in stream:
        aggregate.merge_delta(edges, epoch=epoch, run_id=run_id, receivers=receivers)
    return aggregate


def old_client_publish(edges, receivers, paths, run_id, seq, epoch):
    """A publish frame as a client from before path profiling was removed
    sent it: Ball-Larus ``paths`` rows ride beside edges and receivers.
    The service acks the frame and ignores the rows."""
    message = publish_message(
        FP, edges, run_id=run_id, seq=seq, epoch=epoch, receivers=receivers
    )
    if paths:
        message["paths"] = paths
    return message


def validated(delta):
    """The (epoch, edge_pairs, receiver_pairs) staging shape."""
    edges, receivers, _paths, epoch, _run_id = delta
    return epoch, validate_rows(edges, "edge"), validate_rows(receivers, "receiver row")


def coalesced_merge(stream, policy, partition):
    """Merge the stream as coalesced lumps split at ``partition`` points."""
    aggregate = AggregateProfile(FP, policy)
    start = 0
    for end in list(partition) + [len(stream)]:
        lump = stream[start:end]
        start = end
        if not lump:
            continue
        groups = coalesce_validated(validated(delta) for delta in lump)
        aggregate.merge_coalesced(
            groups,
            run_ids=[delta[4] for delta in lump],
            publishes=len(lump),
        )
    return aggregate


def test_every_partition_of_a_small_stream_is_identical():
    """Exhaustive over all 2^(n-1) partitions of an 8-delta stream."""
    rng = random.Random(11)
    stream = random_stream(rng, 8)
    for decay in (1.0, 0.5):
        policy = MergePolicy(decay=decay)
        reference = json.dumps(eager_merge(stream, policy).to_dict(), sort_keys=True)
        for mask in range(2 ** (len(stream) - 1)):
            partition = [i + 1 for i in range(len(stream) - 1) if mask & (1 << i)]
            lumped = coalesced_merge(stream, policy, partition)
            assert (
                json.dumps(lumped.to_dict(), sort_keys=True) == reference
            ), f"partition {partition} diverged at decay {decay}"


def test_seeded_random_partitions_of_larger_streams():
    """Property-style: many seeds, random partitions, exact equality."""
    for seed in range(20):
        rng = random.Random(seed)
        stream = random_stream(rng, rng.randrange(10, 40))
        policy = MergePolicy(decay=rng.choice((1.0, 0.5)))
        reference = json.dumps(eager_merge(stream, policy).to_dict(), sort_keys=True)
        for _ in range(5):
            cuts = sorted(
                rng.sample(range(1, len(stream)), rng.randrange(0, len(stream) // 2))
            )
            lumped = coalesced_merge(stream, policy, cuts)
            assert json.dumps(lumped.to_dict(), sort_keys=True) == reference


def run(coro):
    return asyncio.run(coro)


async def start_service(tmp_path, name, **kwargs):
    policy = kwargs.pop("policy", MergePolicy(decay=0.5))
    repository = ProfileRepository(str(tmp_path / name), policy)
    service = FleetService(repository, **kwargs)
    await service.start("127.0.0.1", 0)
    return service


async def publish_all(address, stream, flush=False):
    reader, writer = await asyncio.open_connection(*address)
    replies = []
    for seq, (edges, receivers, paths, epoch, run_id) in enumerate(stream):
        await write_message(
            writer,
            old_client_publish(edges, receivers, paths, run_id, seq, epoch),
        )
        replies.append(await read_message(reader))
    if flush:
        await write_message(writer, flush_message())
        replies.append(await read_message(reader))
    writer.close()
    await writer.wait_closed()
    return replies


def test_coalescing_service_persists_byte_identical_snapshots(tmp_path):
    """End to end: the snapshot the service persists for a stream is
    byte-identical to storing the one-delta-at-a-time library merge."""

    async def go():
        stream = random_stream(random.Random(3), 24)
        service = await start_service(tmp_path, "staged")
        replies = await publish_all(service.address, stream, flush=True)
        await service.stop()
        return stream, replies

    stream, replies = run(go())
    acks = [r for r in replies if r.get("type") == "ack"]
    assert len(acks) == 24 and all(r.get("staged") for r in acks)
    assert replies[-1]["type"] == "stats"  # the flush barrier's reply
    assert replies[-1]["merges"] == 24 and replies[-1]["staged"] == 0
    policy = MergePolicy(decay=0.5)
    reference = ProfileRepository(str(tmp_path / "reference"), policy)
    reference.store(eager_merge(stream, policy))
    reference_bytes = (tmp_path / "reference" / f"{FP}.json").read_bytes()
    staged_bytes = (tmp_path / "staged" / f"{FP}.json").read_bytes()
    assert reference_bytes == staged_bytes


def test_every_service_partition_persists_the_reference_bytes(tmp_path):
    """Every partition of a stream into drain lumps, driven through the
    service itself (drain task stalled, a flush at each cut): the
    persisted snapshot never differs from the library reference."""
    stream = random_stream(random.Random(17), 6)
    policy = MergePolicy(decay=0.5)
    reference = ProfileRepository(str(tmp_path / "reference"), policy)
    with open(reference.store(eager_merge(stream, policy)), "rb") as handle:
        reference_bytes = handle.read()

    async def go(mask):
        # An hour-long coalescing window: only the flushes below merge.
        service = await start_service(tmp_path, f"p{mask}", drain_interval=3600.0)
        reader, writer = await asyncio.open_connection(*service.address)
        for seq, (edges, receivers, paths, epoch, run_id) in enumerate(stream):
            await write_message(
                writer,
                old_client_publish(edges, receivers, paths, run_id, seq, epoch),
            )
            assert (await read_message(reader))["staged"] is True
            if mask & (1 << seq):
                await write_message(writer, flush_message())
                assert (await read_message(reader))["staged"] == 0
        writer.close()
        await writer.wait_closed()
        await service.stop()

    for mask in range(2 ** (len(stream) - 1)):
        run(go(mask))
        persisted = (tmp_path / f"p{mask}" / f"{FP}.json").read_bytes()
        assert persisted == reference_bytes, f"partition mask {mask:05b} diverged"


def test_staged_fetch_reads_its_own_writes(tmp_path):
    """A fetch right after a staged ack must see the staged delta."""

    async def go():
        service = await start_service(tmp_path, "repo")
        reader, writer = await asyncio.open_connection(*service.address)
        await write_message(
            writer, publish_message(FP, [["main", 0, "A.f", 8.0]], run_id="r1")
        )
        ack = await read_message(reader)
        await write_message(writer, fetch_message(FP))
        reply = await read_message(reader)
        writer.close()
        await writer.wait_closed()
        await service.stop()
        return ack, reply

    ack, reply = run(go())
    assert ack["type"] == "ack" and ack["staged"] is True
    assert "queue_depth" in ack
    assert reply["found"]
    assert reply["snapshot"]["edges"] == [
        {"caller": "main", "pc": 0, "callee": "A.f", "weight": 8.0}
    ]


def test_connection_close_drains_staged_state(tmp_path):
    """A client that publishes and disconnects (no flush) loses nothing:
    connection close merges and persists without waiting for the drain
    task's window or the snapshot writer's pacing."""

    async def go():
        service = await start_service(tmp_path, "repo", drain_interval=3600.0)
        stream = random_stream(random.Random(5), 6)
        await publish_all(service.address, stream)
        # The connection's finally-drain runs once the server observes
        # EOF — poll briefly rather than racing it.
        snapshot = tmp_path / "repo" / f"{FP}.json"
        for _ in range(500):
            if service.merges == 6 and not service._dirty and snapshot.exists():
                break
            await asyncio.sleep(0.01)
        merges = service.merges
        staged_left = len(service.staging)
        on_disk = ProfileRepository(str(tmp_path / "repo")).load(FP).total_weight
        expected = eager_merge(stream, MergePolicy(decay=0.5)).total_weight
        await service.stop()
        return merges, staged_left, on_disk, expected

    merges, staged_left, on_disk, expected = run(go())
    assert merges == 6
    assert staged_left == 0
    assert on_disk == expected
