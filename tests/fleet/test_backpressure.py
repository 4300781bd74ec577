"""Backpressure: token buckets, busy replies, and client honoring.

The contract under test: an overloaded (but healthy) service answers
``busy`` with a ``retry_after`` instead of queueing unboundedly; the
publisher honors the wait and resends; busy replies never count toward
dead-server detection and never tear down the connection.
"""

import asyncio
from types import SimpleNamespace

import pytest

from repro.fleet.client import FleetPublisher
from repro.fleet.merge import MergePolicy
from repro.fleet.protocol import publish_message, read_message, write_message
from repro.fleet.repository import ProfileRepository
from repro.fleet.service import FleetService
from repro.fleet.staging import RateLimiter, StagingBuffer, TokenBucket
from repro.frontend.codegen import compile_source
from repro.profiling.cbs import CBSProfiler

from tests.fleet._service_thread import ServiceThread

FP = "cd" * 32

SOURCE = """
def main() { print(1); }
"""


# -- token bucket units ----------------------------------------------------------------


def test_token_bucket_burst_then_throttle():
    bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
    assert bucket.take(0.0) == 0.0
    assert bucket.take(0.0) == 0.0
    assert bucket.take(0.0) == 0.0
    retry_after = bucket.take(0.0)  # burst exhausted
    assert 0.0 < retry_after <= 0.1
    # After the advertised wait, a token is available again.
    assert bucket.take(retry_after) == 0.0


def test_token_bucket_refills_to_burst_not_beyond():
    bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
    assert bucket.take(0.0) == 0.0
    assert bucket.take(0.0) == 0.0
    # A long idle refills to exactly the burst cap, never beyond.
    assert bucket.take(100.0) == 0.0
    assert bucket.take(100.0) == 0.0
    assert bucket.take(100.0) > 0.0


def test_rate_limiter_is_per_client():
    limiter = RateLimiter(rate=10.0, burst=1.0)
    assert limiter.check("a", now=0.0) == 0.0
    assert limiter.check("a", now=0.0) > 0.0  # a exhausted its bucket
    assert limiter.check("b", now=0.0) == 0.0  # b is unaffected


def test_rate_limiter_rejects_bad_limits_at_construction(tmp_path):
    """A limit no bucket can hold fails when the limiter is built, not
    inside the publish handler of every frame."""
    for rate, burst in ((-1.0, None), (0.0, 4.0), (float("nan"), None), (5.0, 0.5)):
        with pytest.raises(ValueError, match="rate|burst"):
            RateLimiter(rate, burst)
    with pytest.raises(ValueError, match="rate must be positive"):
        FleetService(ProfileRepository(str(tmp_path)), rate=-1.0)


def test_rate_limiter_evicts_stalest_client():
    limiter = RateLimiter(rate=1.0, burst=1.0)
    for index in range(limiter.MAX_CLIENTS + 10):
        limiter.check(f"client-{index}", now=float(index))
    assert len(limiter._buckets) <= limiter.MAX_CLIENTS
    # The oldest clients were evicted, the newest kept.
    assert "client-0" not in limiter._buckets
    assert f"client-{limiter.MAX_CLIENTS + 9}" in limiter._buckets


def test_staging_buffer_full_flag():
    staging = StagingBuffer(max_staged_rows=4)
    assert not staging.full
    staging.stage(FP, 0, [(("a", 0, "b"), 1.0)] * 3, [], [], "r1")
    assert not staging.full
    staging.stage(FP, 0, [(("a", 0, "b"), 1.0)], [], [], "r1")
    assert staging.full
    assert staging.take_one(FP) is not None
    assert not staging.full


# -- service-side busy replies ---------------------------------------------------------


def run(coro):
    return asyncio.run(coro)


async def start_service(tmp_path, **kwargs):
    repository = ProfileRepository(str(tmp_path / "repo"), MergePolicy())
    service = FleetService(repository, **kwargs)
    await service.start("127.0.0.1", 0)
    return service


def test_rate_limited_publish_gets_busy_with_retry_after(tmp_path):
    async def go():
        # burst of 2: the third rapid-fire publish from one run_id is busy.
        service = await start_service(tmp_path, rate=5.0, burst=2.0)
        reader, writer = await asyncio.open_connection(*service.address)
        replies = []
        for seq in range(3):
            await write_message(
                writer,
                publish_message(
                    FP, [["m", 0, "f", 1.0]], run_id="hot", seq=seq
                ),
            )
            replies.append(await read_message(reader))
        writer.close()
        await writer.wait_closed()
        busy_count = service.busy_rejections
        await service.stop()
        return replies, busy_count

    replies, busy_count = run(go())
    assert [r["type"] for r in replies] == ["ack", "ack", "busy"]
    assert replies[2]["retry_after"] > 0.0
    assert busy_count == 1


def test_staging_high_water_answers_busy(tmp_path):
    async def go():
        service = await start_service(tmp_path, max_staged_rows=2)
        # Stall the drain loop so staged rows accumulate.
        service._drain_task.cancel()
        try:
            await service._drain_task
        except asyncio.CancelledError:
            pass
        service._drain_task = None
        reader, writer = await asyncio.open_connection(*service.address)
        replies = []
        for seq in range(3):
            await write_message(
                writer,
                publish_message(
                    FP, [["m", 0, "f", 1.0], ["m", 1, "g", 1.0]],
                    run_id=f"r{seq}", seq=seq,
                ),
            )
            replies.append(await read_message(reader))
        writer.close()
        await writer.wait_closed()
        await service.stop()
        return replies

    replies = run(go())
    assert replies[0]["type"] == "ack"
    assert replies[1]["type"] == "busy"  # 2 staged rows >= high water
    assert replies[1]["retry_after"] > 0.0


def test_busy_reflected_in_stats_and_status(tmp_path):
    async def go():
        service = await start_service(tmp_path, rate=5.0, burst=1.0)
        reader, writer = await asyncio.open_connection(*service.address)
        for seq in range(2):
            await write_message(
                writer,
                publish_message(FP, [["m", 0, "f", 1.0]], run_id="hot", seq=seq),
            )
            await read_message(reader)
        writer.close()
        await writer.wait_closed()
        stats = service._on_stats()
        status = service.status()
        await service.stop()
        return stats, status

    stats, status = run(go())
    assert stats["busy"] == 1
    assert status["totals"]["busy"] == 1
    assert status["staging"]["busy_rejections"] == 1


# -- client honors backpressure --------------------------------------------------------


def test_publisher_retries_busy_and_stays_alive(tmp_path):
    """A busy reply is honored (bounded sleep + resend) and the server
    is never declared dead over backpressure."""
    program = compile_source(SOURCE)
    with ServiceThread(str(tmp_path / "repo"), rate=4.0, burst=1.0) as server:
        publisher = FleetPublisher(
            server.address, program, every_ticks=1, run_id="hot",
            backoff_base=0.01, max_failures=2,
        )
        publisher._worker_thread = None
        profiler = CBSProfiler()
        fake_vm = SimpleNamespace(profiler=profiler, time=0)
        import threading

        publisher._worker = threading.Thread(
            target=publisher._run_worker, daemon=True
        )
        publisher._worker.start()
        # Burst of rapid batches from one run_id: some are rate-limited,
        # the worker sleeps out the retry_after and resends.
        for tick in range(4):
            profiler.dcg.record(0, tick, 0, 1.0)
            publisher._publish_delta(fake_vm)
        publisher.close()
        assert publisher.busy_backoffs > 0
        assert not publisher.server_dead
        assert publisher.batches_sent == 4
        assert publisher.batches_dropped == 0
