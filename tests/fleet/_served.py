"""``repro-mini serve`` as a real process, for tests that cross the
process boundary (signals, ``kill -9``, the CLI's own commands)."""

from __future__ import annotations

import os
import re
import select
import socket
import subprocess
import sys
import time

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ENV = dict(os.environ, PYTHONPATH=SRC)


class Served:
    """``repro-mini serve --port 0 --root ROOT [extra...]`` as a process.

    Ready once its stderr has named the bound publish address (and, with
    ``--http-port``, the observability address): ``address`` and
    ``http_address`` are ``(host, port)`` pairs.
    """

    def __init__(self, root, *extra: str):
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                   "--root", str(root), *extra]
        # Unbuffered bytes: a buffered reader could swallow the second
        # readiness line while ``select`` waits on the pipe for it.
        self.process = subprocess.Popen(
            command, stderr=subprocess.PIPE, bufsize=0, env=ENV,
        )
        deadline = time.monotonic() + 60.0
        self.address = None
        self.http_address = None
        wants_http = "--http-port" in extra
        #: Everything the service wrote to stderr after its readiness
        #: lines, available once :meth:`kill` has run.
        self.log = ""
        while (
            self.address is None or (wants_http and self.http_address is None)
        ) and time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stderr], [], [], 1.0)
            line = self.process.stderr.readline().decode() if ready else ""
            listening = re.search(r"listening on ([\d.]+):(\d+)", line)
            http = re.search(r"observability on http://([\d.]+):(\d+)", line)
            if listening:
                self.address = (listening.group(1), int(listening.group(2)))
            elif http:
                self.http_address = (http.group(1), int(http.group(2)))
            elif ready and not line:
                break  # the process died before listening
        if self.address is None or (wants_http and self.http_address is None):
            self.kill()
            raise AssertionError("serve did not start listening")

    @property
    def publish(self) -> str:
        """The ``--publish HOST:PORT`` argument that reaches this service."""
        return f"{self.address[0]}:{self.address[1]}"

    def kill(self) -> None:
        """``kill -9`` the service."""
        self.process.kill()
        self.process.wait(30)
        if not self.process.stderr.closed:
            self.log = self.process.stderr.read().decode()
            self.process.stderr.close()

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=30.0)
        sock.settimeout(30.0)
        return sock
