"""The measurement spine: every metric in BENCHMARK.json, by name, from outside.

One workload per process::

    python3 benchmarks/perf/run.py --workload run_calls --seed 7 --seconds 15 --trace 0

prints a table of the end-to-end metrics (``--trace 0``) or of the
per-layer metrics plus span self times (``--trace 1``), and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--workload`` every workload runs in a process of its own, in
both modes, and the result set is written for ``--agree``::

    python3 benchmarks/perf/run.py --out A.json
    python3 benchmarks/perf/run.py --out B.json
    python3 benchmarks/perf/run.py --agree A.json B.json

The harness needs the repository's ``src/`` beside it and fails at once
where that is missing.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import HERE, OUT, ROOT, SRC, Recorder, undisturbed

sys.path.insert(1, SRC)

DEFAULT_SEED = 20250929
SETUP_REPS = 3
#: Units of metrics derived from host time; every other per-layer
#: metric is a count of the program's own work and must repeat exactly.
#: Every ratio is printed with the base it divides by.
RATIO_BASE = {
    "vm.jit.speedup": "vm.interpreter.run_s",
    "vm.jit.compile_share": "vm.jit.run_s",
    "profiling.exhaustive.overhead_ratio": "vm.interpreter.run_s",
    "profiling.cbs.overhead_ratio": "vm.interpreter.run_s",
    "telemetry.tracer.overhead_ratio": "vm.interpreter.run_s",
    "telemetry.flight.overhead_ratio": "vm.interpreter.run_s",
}
TIMED_UNITS = {"s", "ms", "1/s", "steps/s", "tokens/s", "ratio", "pct", "MB", "reps"}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_workload(name: str):
    """Import only what the workload needs, so ``setup_s`` is its own."""
    if name == "fleet_mixed":
        import fleetwork

        return fleetwork.FleetMixed(), "fleetwork"
    import vmwork

    return vmwork.WORKLOADS[name], "vmwork"


def timed_imports(module: str) -> list[float]:
    """Wall time of fresh processes that only import the workload's code."""
    script = f"import sys; sys.path[:0] = [{HERE!r}, {SRC!r}]; import {module}"
    walls = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", script], check=True, timeout=120)
        walls.append(time.perf_counter() - started)
    return walls


def run_pass(workload, rec: Recorder, inputs, seconds: float, traced: bool, quick: bool) -> int:
    """Repeat the workload's rep until ``seconds`` have gone; returns reps kept."""
    rep = workload.traced_rep if traced else workload.rep
    deadline = 0.0 if quick else time.perf_counter() + seconds
    if workload.warmup_rep and not quick:
        rec.warming = True
        rep(rec, inputs)
        rec.warming = False
    reps = 0
    while reps < (1 if quick else 2) or time.perf_counter() < deadline:
        rep(rec, inputs)
        reps += 1
    return reps


def peak_rss_mb(with_children: bool) -> float:
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kilobytes += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kilobytes / 1024.0


def commit_id() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(args, contract: dict) -> int:
    name = args.workload
    traced_mode = args.trace == 1
    workload, module = load_workload(name)
    own_import_s = time.perf_counter() - PROCESS_STARTED
    os.makedirs(OUT, exist_ok=True)

    # Set-up, several times: fresh-process imports, then input
    # generation, compilation, oracle runs / a server boot.
    import_walls = [own_import_s] if args.quick else timed_imports(module)
    prepare_walls = []
    for _ in range(1 if args.quick else SETUP_REPS):
        started = time.perf_counter()
        inputs = workload.prepare(args.seed, args.quick)
        prepare_walls.append(time.perf_counter() - started)
    setup_s = undisturbed(import_walls) + undisturbed(prepare_walls)

    rec = Recorder()
    traced = None
    if traced_mode:
        reps = run_pass(workload, rec, inputs, 0.4 * args.seconds, False, args.quick)
        traced = Recorder(tracing=True)
        run_pass(workload, traced, inputs, 0.6 * args.seconds, True, args.quick)
        workload.traced_once(traced, inputs, args.quick)
    else:
        reps = run_pass(workload, rec, inputs, args.seconds, False, args.quick)

    end_to_end = workload.end_to_end(rec, inputs)
    end_to_end["setup_s"] = setup_s
    end_to_end["peak_rss_mb"] = peak_rss_mb(workload.children_in_rss)
    declared = {m["name"]: m for m in contract["end_to_end"]}
    if set(end_to_end) != set(declared):
        raise SystemExit(f"end-to-end metrics {sorted(end_to_end)} != declared")

    if traced_mode:
        declared = {m["name"]: m for m in contract["per_layer"]}
        values = dict.fromkeys(declared, 0)  # a bypassed layer did no work
        measured = workload.per_layer(rec, traced, inputs)
        measured["harness.reps"] = reps
        # How much slower the staged, span-recording pass ran the same work.
        untraced_s, traced_s = workload.same_work_seconds(rec, traced)
        measured["harness.trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1)
        unknown = set(measured) - set(declared)
        if unknown:
            raise SystemExit(f"undeclared per-layer metrics: {sorted(unknown)}")
        values.update(measured)
        traced.write_spans(os.path.join(OUT, f"trace-{name}.json"))
        print_self_times(traced)
    else:
        values = end_to_end

    attempted = rec.attempted + (traced.attempted if traced else 0)
    failed = rec.failed + (traced.failed if traced else 0)
    failures = rec.failures + (traced.failures if traced else [])
    metrics = {k: {"value": values[k], "unit": declared[k]["unit"]} for k in declared}
    print_metrics(name, metrics, reps, attempted, failed, failures)

    detail = {
        "workload": name,
        "trace": args.trace,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "reps": reps,
        "setup": {"import_s": import_walls, "prepare_s": prepare_walls},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_id(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": end_to_end,
        "metrics": metrics,
        "per_program_s": {
            "untraced": rec.fastest_by_item(),
            "traced": traced.fastest_by_item() if traced else {},
        },
        "samples": {
            stage: {str(item): seconds for item, seconds in by_item.items()}
            for stage, by_item in rec.samples.items()
        },
    }
    with open(args.out or os.path.join(OUT, f"result-{name}-trace{args.trace}.json"), "w") as handle:
        json.dump(detail, handle, indent=1)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def print_metrics(name, metrics, reps, attempted, failed, failures) -> None:
    print(f"== {name}: {reps} timed reps, {attempted} checks, {failed} failed")
    for failure in failures:
        print(f"   FAILED {failure}")
    width = max(len(key) for key in metrics)
    for key, entry in metrics.items():
        line = f"{key:<{width}}  {entry['value']:>16.6g} {entry['unit']}"
        base = RATIO_BASE.get(key)
        if base is not None and entry["value"]:
            line += f"  (base {base} = {metrics[base]['value']:.6g} s)"
        print(line)


def print_self_times(traced: Recorder) -> None:
    print("-- span self times (span minus its children), traced pass")
    print(f"{'span':<38}{'calls':>7}{'total s':>11}{'self s':>11}")
    for span, calls, total, own in traced.self_times():
        print(f"{span:<38}{calls:>7}{total:>11.4f}{own:>11.4f}")


# -- every workload, both modes -------------------------------------------------------


def run_all(args, contract: dict) -> int:
    """Each workload in a process of its own (so peak RSS is per
    workload), untraced then traced; writes the result set."""
    results = {}
    status = 0
    for entry in contract["workloads"]:
        name = entry["name"]
        merged = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            line = json.loads(done.stdout.strip().splitlines()[-1])
            merged[section] = {k: v["value"] for k, v in line["metrics"].items()}
            merged["attempted"] += line["attempted"]
            merged["failed"] += line["failed"]
        if merged["failed"]:
            status = 1
        results[name] = merged
    document = {
        "seed": args.seed, "quick": args.quick, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit_id(), "workloads": results,
    }
    os.makedirs(OUT, exist_ok=True)
    path = args.out or os.path.join(OUT, "results.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"wrote {path}")
    return status


# -- agreement between two result sets ------------------------------------------------


def count_mismatches(a: dict, b: dict, contract: dict) -> list[tuple[str, str, float, float]]:
    """(workload, metric, A, B) for every count that did not repeat exactly."""
    return [
        (name, metric["name"], x, y)
        for name in a
        for metric in contract["per_layer"]
        if metric["unit"] not in TIMED_UNITS
        for x, y in [(a[name]["per_layer"][metric["name"]], b[name]["per_layer"][metric["name"]])]
        if x != y
    ]


def agree(path_a: str, path_b: str, contract: dict) -> int:
    """Compare two result sets of one commit against the contract's bounds."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    misses = 0
    print(f"{'workload':<15}{'metric':<42}{'A':>14}{'B':>14}{'spread':>9}{'bound':>8}")
    for name in a:
        for side, label in ((a, path_a), (b, path_b)):
            if side[name]["failed"]:
                print(f"{name}: {side[name]['failed']} failed checks in {label}")
                misses += 1
        for metric in contract["end_to_end"]:
            key = metric["name"]
            x, y = a[name]["end_to_end"][key], b[name]["end_to_end"][key]
            spread = abs(x - y) / min(x, y)
            verdict = "" if spread <= metric["bound"] else "  MISS"
            misses += bool(verdict)
            print(
                f"{name:<15}{key:<42}{x:>14.6g}{y:>14.6g}{spread:>9.3f}"
                f"{metric['bound']:>8.2f}{verdict}"
            )
    for name, key, x, y in count_mismatches(a, b, contract):
        print(f"{name:<15}{key:<42}{x:>14.6g}{y:>14.6g}   count did not repeat  MISS")
        misses += 1
    print("agree" if not misses else f"{misses} misses")
    return 1 if misses else 0


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one rep (smoke)")
    parser.add_argument("--out", help="where to write the result file")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.agree:
        return agree(*args.agree, contract)
    if args.workload:
        return run_workload(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    raise SystemExit(main())
