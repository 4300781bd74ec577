"""The fleet and live-observability surfaces, end to end through the CLI.

Every process here is a real ``python -m repro.cli`` command: a ``serve``
on ephemeral ports, publishing ``run`` commands, a warm-started ``run``
and ``top``.  The in-process tests cover the same code paths piece by
piece; these hold the commands' wiring together.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import urllib.request

from tests.fleet._served import ENV, Served

#: A hot virtual call: CBS samples it on every window.
COUNTER = """
class Counter {
  var n: int;
  def bump(): int { this.n = this.n + 1; return this.n; }
}
def main() {
  var c = new Counter();
  var t = 0;
  for (var i = 0; i < 200000; i = i + 1) { t = c.bump(); }
  print(t);
}
"""

#: Recursive calls survive static inlining, so CBS has DCG edges to
#: publish.
FIB = """
def fib(n: int): int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
def main() {
  var total = 0;
  for (var i = 0; i < 40; i = i + 1) { total = total + fib(16); }
  print(total);
}
"""


def cli(*argv: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *argv]


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(cli(*argv), env=ENV, capture_output=True, text=True, timeout=120)


def http_get(server: Served, path: str) -> str:
    host, port = server.http_address
    with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10.0) as response:
        return response.read().decode()


def test_concurrent_publishers_then_warm_start(tmp_path):
    """Two runs publish into one aggregate at once; its snapshot reaches
    disk, and a third run warm-starts from it."""
    guest = tmp_path / "smoke.mini"
    guest.write_text(COUNTER)
    root = tmp_path / "fleet-repo"
    server = Served(root)
    try:
        runs = [
            subprocess.Popen(
                cli("run", str(guest), "--profile", "cbs", *seed,
                    "--publish", server.publish, "--publish-every", "10"),
                env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for seed in ([], ["--seed", "7"])
        ]
        for run in runs:
            out, err = run.communicate(timeout=120)
            assert run.returncode == 0, err
            assert out == "200000\n"
        assert os.listdir(root)  # the merged snapshot is on disk
        warm = run_cli("run", str(guest), "--adaptive", "--profile", "cbs",
                       "--publish", server.publish, "--warm-start", "--stats")
        assert warm.returncode == 0, warm.stderr
        assert "warm start:" in warm.stderr
    finally:
        server.kill()


def test_live_endpoints_and_top_after_two_publishers(tmp_path):
    """``serve --http-port 0``: /healthz answers, two publishing runs
    move /metrics and /status, and ``top --once`` renders the service."""
    guest = tmp_path / "obs.mini"
    guest.write_text(FIB)
    server = Served(tmp_path / "obs-fleet", "--http-port", "0")
    try:
        assert '"ok"' in http_get(server, "/healthz")
        for seed in ([], ["--seed", "7"]):
            done = run_cli("run", str(guest), "--profile", "cbs", *seed,
                           "--publish", server.publish, "--publish-every", "2")
            assert done.returncode == 0, done.stderr
        metrics = http_get(server, "/metrics")
        assert re.search(r"^fleet_publishes_total [1-9]", metrics, re.M), metrics
        assert re.search(r'^fleet_delta_edges_bucket\{le="\+Inf"\} [1-9]', metrics, re.M)
        # /status reports both publishers with zero inferred drops.
        status = json.loads(http_get(server, "/status"))
        assert status["totals"]["merges"] > 0, status
        assert len(status["clients"]) == 2, status
        assert all(client["dropped"] == 0 for client in status["clients"].values()), status
        host, port = server.http_address
        top = run_cli("top", f"{host}:{port}", "--once")
        assert top.returncode == 0, top.stderr
        assert "fleet service" in top.stdout
    finally:
        server.kill()
