"""Hostile fetched snapshots: seeded byte mutants of a real reply.

``--warm-start`` trusts nothing the fleet server sends.  A reply that
breaks the framing or the protocol makes ``fetch_snapshot`` return
``None``; a snapshot whose content is wrong makes ``dcg_from_dict``
raise ``ProfileFormatError``.  Each test here serves seeded byte
mutants of one real ``snapshot`` reply frame from an in-process stub
server and holds that no other outcome exists: in the library for 300
mutants, lenient and strict, and through ``repro-mini run --adaptive
--publish ... --warm-start`` for a few of them, where each run either
warm-starts, says ``starting cold``, or (``--strict`` only) exits 1
with one line, and never prints a traceback.
"""

from __future__ import annotations

import random
import socket
import struct
import subprocess
import sys
import threading
import warnings

import pytest

from repro.fleet.client import fetch_snapshot
from repro.fleet.protocol import (
    ProtocolError,
    encode_message,
    fetch_message,
    publish_message,
    recv_message,
    send_message,
    snapshot_message,
    staged_ack_message,
)
from repro.frontend.codegen import compile_source
from repro.profiling.dcg import DCG
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.serialize import ProfileFormatError, dcg_from_dict, dcg_to_dict
from repro.vm.interpreter import Interpreter
from tests.fleet._served import ENV
from tests.fleet._service_thread import ServiceThread
from tests.helpers import last_digit_mutant

GUEST = """
class A { def f(): int { return 1; } }
class B extends A { def f(): int { return 2; } }
def fib(n: int): int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
def main() {
  var a = new A();
  var b = new B();
  var t = fib(12);
  for (var i = 0; i < 3000; i = i + 1) { t = t + a.f() + b.f(); }
  print(t);
}
"""

MUTANTS = 300


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        assert chunk, "service closed the connection mid-frame"
        data += chunk
    return data


def real_reply(root: str, program) -> bytes:
    """The ``snapshot`` frame a live service sends for one published run."""
    vm = Interpreter(program)
    profiler = ExhaustiveProfiler()
    profiler.install(vm)
    vm.run()
    names = [f.qualified_name for f in program.functions]
    delta = [
        [names[caller], pc, names[callee], weight]
        for (caller, pc, callee), weight in sorted(profiler.dcg.edges().items())
    ]
    with ServiceThread(root) as served:
        with socket.create_connection(served.address, timeout=5) as sock:
            send_message(sock, publish_message(program.fingerprint(), delta, run_id="r"))
            assert recv_message(sock)["type"] == "ack"
            send_message(sock, fetch_message(program.fingerprint()))
            header = _recv_exactly(sock, 4)
            return header + _recv_exactly(sock, struct.unpack(">I", header)[0])


def mutate(frame: bytes, seed: int) -> bytes:
    rng = random.Random(seed)
    data = bytearray(frame)
    for _ in range(rng.randint(1, 4)):
        data[rng.randrange(len(data))] = rng.randrange(256)
    return bytes(data)


class StubServer:
    """Acks publishes and answers every fetch with ``self.reply``, then
    hangs up — a fleet server whose snapshot is whatever the test says."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # closed
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn:
            try:
                while True:
                    message = recv_message(conn)
                    if message.get("type") == "fetch":
                        conn.sendall(self.reply)
                        return
                    send_message(conn, staged_ack_message(0))
            except (OSError, ProtocolError):
                return

    def close(self) -> None:
        self._listener.close()


def load(snapshot, program, strict: bool):
    """``"dcg"`` or ``"rejected"``; any other exception escapes."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dcg = dcg_from_dict(snapshot, program, strict=strict)
    except ProfileFormatError:
        return "rejected"
    assert isinstance(dcg, DCG)
    return "dcg"


@pytest.fixture(scope="module")
def served_mutants(tmp_path_factory):
    """``(program, stub, original reply, {seed: outcome})`` where an
    outcome is ``"cold"`` (no snapshot) or the lenient and strict loads."""
    program = compile_source(GUEST)
    original = real_reply(str(tmp_path_factory.mktemp("repo")), program)
    stub = StubServer(original)
    outcomes = {}
    try:
        for seed in range(MUTANTS):
            stub.reply = mutate(original, seed)
            snapshot = fetch_snapshot(stub.address, program.fingerprint())
            if snapshot is None:
                outcomes[seed] = "cold"
            else:
                outcomes[seed] = (load(snapshot, program, False), load(snapshot, program, True))
        yield program, stub, original, outcomes
    finally:
        stub.close()


def test_every_fetched_mutant_is_none_a_dcg_or_a_format_error(served_mutants):
    program, stub, original, outcomes = served_mutants
    stub.reply = original
    assert load(fetch_snapshot(stub.address, program.fingerprint()), program, True) == "dcg"
    assert len(outcomes) == MUTANTS
    # The corpus reaches every outcome: the transport, the loader's
    # rejection in both modes and in strict mode only, and a usable DCG.
    assert set(outcomes.values()) == {
        "cold", ("rejected", "rejected"), ("dcg", "rejected"), ("dcg", "dcg")
    }


def test_warm_start_run_survives_fetched_mutants(served_mutants, tmp_path):
    program, stub, original, outcomes = served_mutants
    guest = tmp_path / "guest.mini"
    guest.write_text(GUEST)
    cold = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", str(guest), "--adaptive", "--profile", "cbs"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert cold.returncode == 0, cold.stderr
    # The first seed of each outcome, not all of them: each is a process.
    picked = {}
    for seed, outcome in sorted(outcomes.items()):
        picked.setdefault(outcome, seed)
    for outcome, seed in sorted(picked.items(), key=lambda item: item[1]):
        stub.reply = mutate(original, seed)
        for strict in (False, True):
            argv = [
                sys.executable, "-m", "repro.cli", "run", str(guest), "--adaptive",
                "--profile", "cbs", "--publish", "%s:%d" % stub.address, "--warm-start",
            ] + (["--strict"] if strict else [])
            run = subprocess.run(argv, env=ENV, capture_output=True, text=True, timeout=120)
            where = f"seed {seed}, strict={strict}: {run.stderr}"
            assert "Traceback" not in run.stderr, where
            expected = "cold" if outcome == "cold" else outcome[strict]
            if expected == "rejected" and strict:
                assert run.returncode == 1, where
                assert run.stdout == ""
                (line,) = run.stderr.splitlines()
                assert line.startswith("warm-start profile rejected: "), where
                continue
            assert run.returncode == 0, where
            assert run.stdout == cold.stdout, where
            if expected == "dcg":
                assert "-- warm start: " in run.stderr, where
            else:
                assert "starting cold" in run.stderr, where


def test_lenient_fingerprint_mismatch_is_one_note(tmp_path):
    """A snapshot from another build of the program (its fingerprint's
    last hex digit changed) still warm-starts a lenient run, and says so
    in one ``note:`` line, not as a raw ``ProfileMismatchWarning``."""
    program = compile_source(GUEST)
    vm = Interpreter(program)
    profiler = ExhaustiveProfiler()
    profiler.install(vm)
    vm.run()
    snapshot = dcg_to_dict(profiler.dcg, program)
    snapshot["fingerprint"] = last_digit_mutant(snapshot["fingerprint"])
    stub = StubServer(encode_message(snapshot_message(snapshot)))
    guest = tmp_path / "guest.mini"
    guest.write_text(GUEST)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", str(guest), "--adaptive",
             "--profile", "cbs", "--publish", "%s:%d" % stub.address, "--warm-start"],
            env=ENV, capture_output=True, text=True, timeout=120,
        )
    finally:
        stub.close()
    assert run.returncode == 0, run.stderr
    notes = [line for line in run.stderr.splitlines() if line.startswith("note:")]
    assert notes == [
        "note: profile was collected against a different build of the "
        "program; resolving by name anyway"
    ], run.stderr
    assert "Warning" not in run.stderr
    assert "-- warm start: " in run.stderr
