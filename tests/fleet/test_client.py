"""Publisher tests: non-perturbation, delivery, dead-server behavior."""

import time
from types import SimpleNamespace

import pytest

from repro.adaptive.controller import AdaptiveSystem
from repro.fleet.client import FleetPublisher, fetch_snapshot, parse_address
from repro.frontend.codegen import compile_source
from repro.inlining.new_inliner import NewJikesInliner
from repro.profiling.cbs import CBSProfiler
from repro.profiling.serialize import dcg_from_dict
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

#: A port nothing listens on (port 1 is privileged and unbound).
DEAD = ("127.0.0.1", 1)


def profiled_run(program, publisher=None, adaptive=False, seed=5):
    vm = Interpreter(program)
    vm.attach_profiler(CBSProfiler(seed=seed))
    if adaptive:
        AdaptiveSystem(program, NewJikesInliner(program)).install(vm)
    if publisher is not None:
        publisher.install(vm)
    vm.run()
    if publisher is not None:
        publisher.flush(vm)
        publisher.close()
    return vm


def test_parse_address():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_address("::1:9000") == ("::1", 9000)
    for bad in ("nohost", ":123", "host:", "host:abc"):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_dead_server_run_is_bit_identical():
    """The acceptance property: --publish at a dead server changes nothing."""
    program = compile_source(SOURCE)
    baseline = profiled_run(program)
    publisher = FleetPublisher(
        DEAD, program, every_ticks=2, backoff_base=0.01, connect_timeout=0.1
    )
    published = profiled_run(program, publisher)
    assert published.output == baseline.output
    assert published.time == baseline.time
    assert published.steps == baseline.steps
    assert published.profiler.dcg.edges() == baseline.profiler.dcg.edges()
    assert publisher.server_dead
    assert publisher.batches_sent == 0


def test_publish_end_to_end(tmp_path):
    program = compile_source(SOURCE)
    with ServiceThread(str(tmp_path / "repo")) as server:
        publisher = FleetPublisher(server.address, program, every_ticks=2)
        vm = profiled_run(program, publisher)
        assert publisher.batches_sent > 0
        assert publisher.batches_dropped == 0
        assert not publisher.server_dead
        snapshot = fetch_snapshot(server.address, program.fingerprint())
    assert snapshot is not None
    # Everything the profiler saw arrived, exactly once.
    resolved = dcg_from_dict(snapshot, program)
    assert resolved.edges() == vm.profiler.dcg.edges()


def test_publisher_chains_after_adaptive(tmp_path):
    program = compile_source(SOURCE)
    with ServiceThread(str(tmp_path / "repo")) as server:
        publisher = FleetPublisher(server.address, program, every_ticks=2)
        vm = profiled_run(program, publisher, adaptive=True)
        # Both hooks ran: the adaptive system promoted something and the
        # publisher still delivered.
        assert vm.code_cache.compile_count > 0
        assert publisher.batches_sent > 0


def test_fetch_snapshot_dead_server_returns_none():
    assert fetch_snapshot(DEAD, "ab" * 32, timeout=0.2) is None


def test_queue_overflow_drops_without_blocking():
    """No worker draining the queue: the VM side must keep going."""
    program = compile_source(SOURCE)
    publisher = FleetPublisher(DEAD, program, every_ticks=1, queue_size=2)
    profiler = CBSProfiler()
    fake_vm = SimpleNamespace(profiler=profiler, time=0)
    for tick in range(10):
        profiler.dcg.record(0, tick, 1, 1.0)  # new growth every tick
        publisher.on_tick(fake_vm)
    assert publisher.batches_enqueued == 2
    assert publisher.batches_dropped == 8


def test_dropped_batch_growth_rides_with_next(tmp_path):
    """Edges from a queue-dropped batch are not lost, just delayed."""
    import threading

    program = compile_source(SOURCE)
    with ServiceThread(str(tmp_path / "repo")) as server:
        # Worker not started yet, queue of 1: the second batch is dropped.
        publisher = FleetPublisher(server.address, program, every_ticks=1, queue_size=1)
        profiler = CBSProfiler()
        fake_vm = SimpleNamespace(profiler=profiler, time=0)
        profiler.dcg.record(0, 0, 1, 3.0)
        publisher._publish_delta(fake_vm)  # enqueued
        profiler.dcg.record(0, 0, 1, 4.0)
        publisher._publish_delta(fake_vm)  # queue full -> dropped
        assert publisher.batches_dropped == 1
        # Start the worker, drain the queue, then publish the remainder:
        # the dropped batch's growth must ride along.
        publisher._worker = threading.Thread(
            target=publisher._run_worker, daemon=True
        )
        publisher._worker.start()
        while not publisher._queue.empty():
            pass
        publisher._publish_delta(fake_vm)
        worker = publisher._worker
        # The queue may still be full here: close() must wait for the
        # worker to take that batch, not out its whole timeout.
        started = time.monotonic()
        publisher.close()
        assert time.monotonic() - started < 1.0
        assert not worker.is_alive()
        snapshot = fetch_snapshot(server.address, program.fingerprint())
    weights = [edge["weight"] for edge in snapshot["edges"]]
    assert weights == [7.0]


def test_publisher_emits_telemetry():
    from repro.telemetry import Tracer

    program = compile_source(SOURCE)
    tracer = Tracer()
    publisher = FleetPublisher(
        DEAD, program, every_ticks=2, telemetry=tracer,
        backoff_base=0.01, connect_timeout=0.1,
    )
    vm = Interpreter(program)
    vm.attach_telemetry(tracer)
    vm.attach_profiler(CBSProfiler(seed=5))
    publisher.install(vm)
    vm.run()
    publisher.flush(vm)
    publisher.close()
    publishes = [e for e in tracer.events if e.name == "fleet_publish"]
    assert publishes
    assert tracer.metrics.get("fleet.publishes").value == len(publishes)
    assert all(e.edges > 0 and e.weight > 0 for e in publishes)


def test_every_ticks_validation():
    program = compile_source(SOURCE)
    with pytest.raises(ValueError):
        FleetPublisher(DEAD, program, every_ticks=0)
    with pytest.raises(ValueError):
        FleetPublisher(DEAD, program, revive_every=0)


def test_dead_server_revival_probe(tmp_path):
    """Regression: dead is not forever.  A publisher that declared the
    server dead regains it once the server is reachable again — every
    ``revive_every``-th dropped batch spends one bounded probe."""
    import threading

    program = compile_source(SOURCE)
    publisher = FleetPublisher(
        DEAD, program, every_ticks=1,
        backoff_base=0.001, connect_timeout=0.1, max_failures=1,
        revive_every=2, queue_size=64,
    )
    profiler = CBSProfiler()
    fake_vm = SimpleNamespace(profiler=profiler, time=0)
    publisher._worker = threading.Thread(target=publisher._run_worker, daemon=True)
    publisher._worker.start()

    # Phase 1: the server is down; one failed connect marks it dead.
    profiler.dcg.record(0, 0, 1, 1.0)
    publisher._publish_delta(fake_vm)
    for _ in range(200):
        if publisher.server_dead:
            break
        import time

        time.sleep(0.01)
    assert publisher.server_dead
    assert publisher.batches_sent == 0

    # Phase 2: the server comes back at a new address; within a few
    # dropped batches a revival probe reconnects and delivery resumes.
    with ServiceThread(str(tmp_path / "repo")) as server:
        publisher.address = server.address
        for tick in range(1, 8):
            profiler.dcg.record(0, tick, 1, 1.0)
            publisher._publish_delta(fake_vm)
        publisher.close()
        assert publisher.revivals == 1
        assert not publisher.server_dead
        assert publisher.batches_sent > 0


def test_dead_server_probes_stay_bounded():
    """While the server stays down, revival probes are rationed: only
    every ``revive_every``-th dropped batch attempts a connect, and the
    publisher never resurrects itself."""
    import threading

    program = compile_source(SOURCE)
    publisher = FleetPublisher(
        DEAD, program, every_ticks=1,
        backoff_base=0.001, connect_timeout=0.1, max_failures=1,
        revive_every=4, queue_size=64,
    )
    profiler = CBSProfiler()
    fake_vm = SimpleNamespace(profiler=profiler, time=0)
    publisher._worker = threading.Thread(target=publisher._run_worker, daemon=True)
    publisher._worker.start()
    for tick in range(12):
        profiler.dcg.record(0, tick, 1, 1.0)
        publisher._publish_delta(fake_vm)
    publisher.close()
    assert publisher.server_dead
    assert publisher.revivals == 0
    assert publisher.batches_sent == 0
    assert publisher.batches_dropped > 0
