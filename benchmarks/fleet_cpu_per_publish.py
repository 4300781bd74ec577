"""CPU per publish of the two fleet topologies — the keep-or-delete number.

The sharded frontend relays every publish on one event-loop thread, so
however many cores and workers a host has, sharded throughput is at most
``1 / (frontend loop CPU per publish)``.  The single service is bound by
its own loop thread the same way (its snapshot thread runs on another
core when there is one), so loop CPU over loop CPU bounds
``scaling_ratio`` from above without needing the cores: below 1.3x,
``serve --workers`` can never clear ROADMAP item 4's keep-bar and goes;
at or above it, the question stays open until a host with
``cpus > workers`` measures the wall ratio itself (docs/FLEET.md, "What
sharding can buy").

Boots go through ``fleet-bench``'s own ``fleet.bench._ServerProcess`` /
``_run_mode``, nothing is patched, and per-thread CPU is read from
``/proc/<pid>/task/*/schedstat`` around exactly the window the wall
clock covers (Linux only).  Boot cost — imports, spawning workers — is
outside it: read since process start, the frontend's thread shows ~25 us
per publish more over 8 000 publishes, none of it per-publish work.
Which topology boots first alternates from one iteration to the next.

    PYTHONPATH=src python benchmarks/fleet_cpu_per_publish.py --boots 8
    PYTHONPATH=src python benchmarks/fleet_cpu_per_publish.py --boots 3 --workers 4
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile

from repro.fleet.bench import _run_mode, _ServerProcess, build_workload

#: The protocol docs/FLEET.md's table was recorded with; change a value
#: and a run is no longer comparable with it.
PUBLISHERS, BATCHES, EDGES, PROGRAMS, JOBS = 2000, 4, 20, 32, 8


def thread_cpu_ns(pid: int) -> dict[int, int]:
    """On-CPU nanoseconds of every thread of ``pid``, by thread id."""
    out = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                out[int(tid)] = int(handle.read().split()[0])
        except OSError:
            pass  # the thread exited between listdir and open
    return out


def shard_worker_pids(frontend_pid: int) -> list[int]:
    """The frontend's spawned workers (not its resource tracker)."""
    with open(f"/proc/{frontend_pid}/task/{frontend_pid}/children") as handle:
        children = handle.read().split()
    pids = []
    for child in children:
        with open(f"/proc/{child}/cmdline", "rb") as handle:
            if b"spawn_main" in handle.read():
                pids.append(int(child))
    return pids


def boot(workers: int, work, root: str) -> dict:
    """One boot of one topology: microseconds of CPU per publish."""
    per_publisher, expected, fingerprints = work
    server = _ServerProcess(root, workers)
    try:
        front = server.process.pid
        pids = [front] + (shard_worker_pids(front) if workers > 1 else [])
        before = {pid: thread_cpu_ns(pid) for pid in pids}
        result = _run_mode(server.address, per_publisher, expected, fingerprints, JOBS)
        after = {pid: thread_cpu_ns(pid) for pid in pids}
    finally:
        server.stop()
    assert result["failures"] == 0 and result["lost_edges"] == 0, result
    scale = 1e3 * result["publishes"]

    def spent(pid, tids=None):
        return sum(
            ns - before[pid].get(tid, 0)
            for tid, ns in after[pid].items()
            if tids is None or tid in tids
        ) / scale

    return {
        "throughput": result["throughput"],
        # The serving process: its event-loop (main) thread, then all threads.
        "loop_us": spent(front, {front}),
        "total_us": spent(front),
        "workers_us": sum(spent(pid) for pid in pids[1:]),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--boots", type=int, default=5, help="boots per topology")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    work = build_workload(PUBLISHERS, BATCHES, EDGES, PROGRAMS)
    print(f"cpus={os.cpu_count()} workers={args.workers} "
          f"publishes/boot={PUBLISHERS * BATCHES}  (us of CPU per publish)")
    print("boot  single:loop total | frontend:loop workers:total | wall ratio  "
          "ceiling  cpu multiple")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(args.boots):
            # Alternate which topology boots first, so neither side
            # always gets the quieter (or busier) half of an iteration.
            order = (1, args.workers) if index % 2 == 0 else (args.workers, 1)
            booted = {w: boot(w, work, f"{tmp}/{w}w{index}") for w in order}
            single, sharded = booted[1], booted[args.workers]
            row = (
                single["loop_us"], single["total_us"],
                sharded["loop_us"], sharded["workers_us"],
                sharded["throughput"] / single["throughput"],
                single["loop_us"] / sharded["loop_us"],
                (sharded["total_us"] + sharded["workers_us"]) / single["total_us"],
            )
            rows.append(row)
            print("%4d  %11.0f %5.0f | %13.0f %13.0f | %9.2fx %7.2fx %12.2fx"
                  % (index, *row), flush=True)
    medians = [statistics.median(column) for column in zip(*rows)]
    print(" med  %11.0f %5.0f | %13.0f %13.0f | %9.2fx %7.2fx %12.2fx" % tuple(medians))
    ceilings = [row[5] for row in rows]
    held = sum(ceiling >= 1.3 for ceiling in ceilings)
    print(f"ceiling (single loop / frontend loop) {min(ceilings):.2f}x-{max(ceilings):.2f}x, "
          f">= 1.3x in {held} of {len(rows)} boots")


if __name__ == "__main__":
    main()
