"""Command-line interface for the Mini toolchain.

Usage::

    repro-mini run program.mini [--vm jikes|j9] [--profile cbs|timer|whaley]
                                [--stride N] [--samples N] [--skip-policy P]
                                [--seed N] [--context-depth N] [--adaptive]
                                [--opt {0,1}] [--no-fuse] [--no-ic] [--no-jit]
                                [--paths exhaustive|mincov|cbs]
                                [--stats] [--dcg]
                                [--trace FILE] [--trace-format jsonl|chrome]
                                [--publish HOST:PORT] [--publish-every K]
                                [--warm-start] [--strict]
                                [--metrics-port P] [--flight-dump PATH]
                                [--no-flight]
    repro-mini serve [--host H] [--port P] [--root DIR] [--decay F]
                     [--rate R] [--burst B]
                     [--http-port P] [--trace FILE]
    repro-mini fleet-bench [--publishers N] [--batches B] [--edges E]
                           [--jobs J] [--quick] [--json]
                           [--write PATH] [--check PATH]
    repro-mini top HOST:PORT [--interval S] [--once]
    repro-mini report trace_file [--json] [--no-histograms]
    repro-mini bench [--benchmarks a,b] [--profilers cbs,timer] [--seeds 1,2]
                     [--size S] [--vm jikes|j9] [--jobs N] [--json]
    repro-mini disasm program.mini [--fused | --ic | --paths | --jit | --spec]
                                   [--method N]
    repro-mini check program.mini
    repro-mini fuzz [--seeds N] [--jobs K] [--start S] [--vm jikes|j9]
                    [--save-repros DIR] [--replay DIR] [--no-shrink] [--json]

(or ``python -m repro.cli ...``).  ``--trace`` records the run's
telemetry (ticks, yieldpoint transitions, CBS windows, samples,
recompilations, inlining decisions) to FILE; ``report`` summarizes such
a file as a table.  See docs/OBSERVABILITY.md.

``serve`` runs the fleet profile-aggregation service; ``run --publish``
streams DCG deltas to it in the background (never blocking the VM) and
``--warm-start`` seeds the adaptive optimizer from the fleet's
aggregated profile before execution.  See docs/FLEET.md.

``fuzz`` runs the differential fuzzer: random programs executed across
the whole ``fuse × ic × jit × profiler × telemetry`` configuration
matrix,
checking the identity invariants; violations are triaged, shrunk, and
(with ``--save-repros``) written out as reproducers.  ``--replay DIR``
re-checks a committed reproducer corpus instead.  See docs/FUZZING.md.

Hot methods run through the opt-level-3 template JIT by default:
bodies compile to generated host functions that de-optimize back to
the interpreter at tick boundaries and guard failures, keeping every
observable bit-identical.  ``--no-jit`` turns it off, ``--stats``
prints the ``jit:`` counter line, and ``disasm --jit`` shows the
generated code.  See docs/JIT.md.

``run --paths MODE`` attaches the Ball-Larus path profiler: every
acyclic (back-edge-truncated) intraprocedural path is numbered and
counted — exhaustively, with minimum-coverage counter placement
(``mincov``), or sampled in CBS windows (``cbs``).  Path rows ride in
saved profiles.  See docs/PATHS.md.

Live observability: ``serve --http-port`` and ``run --metrics-port``
expose ``/metrics`` (Prometheus text), ``/healthz``, and ``/status``;
``top`` polls a ``/status`` endpoint into a live terminal view.  Every
``run`` keeps a flight recorder (a bounded in-memory ring; disable with
``--no-flight``) and dumps it as ``PROGRAM.flight.jsonl`` when the run
faults.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.adaptive.controller import AdaptiveSystem
from repro.adaptive.modes import jit_only_cache
from repro.bytecode.disassembler import disassemble
from repro.frontend.codegen import compile_source
from repro.lang.errors import MiniError
from repro.inlining.new_inliner import NewJikesInliner
from repro.profiling.cbs import SKIP_POLICIES, CBSProfiler
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.loops import CBSLoopProfiler
from repro.profiling.serialize import ProfileFormatError, load_profile, save_profile
from repro.profiling.timer_sampler import TimerProfiler
from repro.profiling.whaley import WhaleyProfiler
from repro.vm.config import config_named
from repro.vm.errors import VMError
from repro.vm.interpreter import Interpreter


def _load(path: str):
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as error:
        raise SystemExit(f"cannot read {path}: {error}")
    try:
        return compile_source(source, filename=path)
    except MiniError as error:
        raise SystemExit(f"compile error: {error}")


def _profiler_for(args):
    # --seed omitted → keep each profiler class's own default seed.
    seeded = {} if args.seed is None else {"seed": args.seed}
    if args.profile == "cbs":
        return CBSProfiler(
            stride=args.stride,
            samples_per_tick=args.samples,
            skip_policy=args.skip_policy,
            context_depth=args.context_depth,
            **seeded,
        )
    if args.profile == "timer":
        return TimerProfiler()
    if args.profile == "whaley":
        return WhaleyProfiler()
    if args.profile == "loops":
        return CBSLoopProfiler(
            stride=args.stride, samples_per_tick=args.samples, **seeded
        )
    return None


def _cmd_run(args) -> int:
    program = _load(args.file)
    # Adaptive runs promote to the template JIT from the controller
    # (path-hot level-2 methods first) instead of the plain-run
    # counting trampoline, so the config flag stays off there.
    adaptive_mode = args.adaptive or args.warm_start
    config = config_named(
        args.vm,
        fuse=not args.no_fuse,
        ic=not args.no_ic,
        paths=args.paths is not None,
        jit=not args.no_jit and not adaptive_mode,
    )

    cache = jit_only_cache(
        program, config.cost_model, level=args.opt, fuse=config.fuse,
        ic=config.ic, paths=config.paths,
    )
    vm = Interpreter(program, config, cache)

    path_tracker = None
    if args.paths is not None:
        from repro.profiling.paths import PathTracker

        path_tracker = PathTracker(
            mode=args.paths, stride=args.stride, samples_per_tick=args.samples
        )
        vm.attach_paths(path_tracker)

    tracer = None
    if args.trace:
        from repro.telemetry import Tracer

        tracer = Tracer()
        vm.attach_telemetry(tracer)

    if args.load_profile:
        # Offline PGO: pre-optimize everything the saved profile justifies.
        from repro.opt.pipeline import optimize_function

        try:
            offline = load_profile(args.load_profile, program, strict=args.strict)
        except ProfileFormatError as error:
            raise SystemExit(str(error))
        policy = NewJikesInliner(program)
        policy.telemetry = tracer
        for function in program.functions:
            plan = policy.plan_for(function.index, offline)
            if not plan.is_empty():
                vm.code_cache.install(optimize_function(program, plan).function, 2)

    publish_address = None
    if args.publish:
        from repro.fleet.client import parse_address

        try:
            publish_address = parse_address(args.publish)
        except ValueError as error:
            raise SystemExit(str(error))

    if args.warm_start and not args.adaptive:
        print(
            "note: --warm-start seeds the adaptive controller; enabling "
            "--adaptive",
            file=sys.stderr,
        )
        args.adaptive = True

    perfect = None
    if args.dcg:
        perfect = ExhaustiveProfiler()
        perfect.install(vm)
    profiler = _profiler_for(args)
    if profiler is not None:
        vm.attach_profiler(profiler)
    adaptive = None
    if args.adaptive:
        from repro.adaptive.controller import AdaptiveConfig

        adaptive = AdaptiveSystem(
            program,
            NewJikesInliner(program),
            AdaptiveConfig(jit=not args.no_jit),
        )
        adaptive.install(vm)
        if profiler is None:
            print(
                "note: --adaptive without --profile never promotes "
                "(no samples); adding cbs",
                file=sys.stderr,
            )
            args.profile = "cbs"
            profiler = _profiler_for(args)
            vm.attach_profiler(profiler)

    if args.warm_start:
        # Best-effort: an unreachable server or unusable snapshot means
        # a cold start, never a failed run (strict mode excepted).
        if publish_address is None:
            raise SystemExit("--warm-start needs --publish HOST:PORT to fetch from")
        from repro.fleet.client import fetch_snapshot
        from repro.profiling.serialize import dcg_from_dict

        snapshot = fetch_snapshot(publish_address, program.fingerprint())
        if snapshot is None:
            print(
                "note: no fleet profile available; starting cold",
                file=sys.stderr,
            )
        else:
            try:
                warm_dcg = dcg_from_dict(snapshot, program, strict=args.strict)
            except ProfileFormatError as error:
                if args.strict:
                    raise SystemExit(f"warm-start profile rejected: {error}")
                print(
                    f"note: fleet profile unusable ({error}); starting cold",
                    file=sys.stderr,
                )
            else:
                promoted = adaptive.warm_start(vm, warm_dcg)
                print(
                    f"-- warm start: {len(promoted)} methods pre-optimized "
                    f"from fleet profile ({len(warm_dcg)} edges)",
                    file=sys.stderr,
                )

    publisher = None
    if publish_address is not None:
        from repro.fleet.client import FleetPublisher

        # Installed after the adaptive system: the publisher chains onto
        # an existing tick hook, charges no virtual time, and does all
        # socket work on a daemon thread.
        publisher = FleetPublisher(
            publish_address,
            program,
            every_ticks=args.publish_every,
            epoch=args.publish_epoch,
            telemetry=tracer,
        )
        publisher.install(vm)

    flight = None
    if not args.no_flight:
        from repro.telemetry.ring import FlightRecorder

        # Always on: ring-buffer writes only (no I/O, no virtual-time
        # charge); dumped as a post-mortem artifact when the run faults.
        flight = FlightRecorder()
        vm.attach_flight(flight)

    metrics_server = None
    if args.metrics_port is not None:
        from repro.telemetry import Tracer
        from repro.telemetry.httpapi import HttpServerThread, ObservabilityHTTP

        if tracer is None:
            # /metrics needs a registry; attaching a tracer never
            # perturbs the run (same guarantee --trace relies on).
            tracer = Tracer()
            vm.attach_telemetry(tracer)

        def live_status():
            status = {
                "service": "repro-mini run",
                "file": args.file,
                "vm": args.vm,
                "vtime": vm.time,
                "steps": vm.steps,
                "ticks": vm.ticks,
                "calls": vm.call_count,
                "depth": len(vm.frames),
                "finished": vm.finished,
            }
            if flight is not None:
                status["flight"] = flight.stats()
            return status

        metrics_server = HttpServerThread(
            ObservabilityHTTP(registry=tracer.metrics, status_fn=live_status),
            port=args.metrics_port,
        )
        try:
            address = metrics_server.start()
        except OSError as error:
            raise SystemExit(f"cannot start metrics listener: {error}")
        print(
            f"-- metrics listening on http://{address[0]}:{address[1]} "
            f"(/metrics /healthz /status)",
            file=sys.stderr,
            flush=True,
        )

    def dump_flight(reason: str) -> None:
        if flight is None:
            return
        path = args.flight_dump or f"{args.file}.flight.jsonl"
        flight.record("dump", reason=reason)
        if tracer is not None:
            flight.note_metrics(tracer.metrics)
        try:
            flight.dump(path)
        except OSError as error:
            print(f"cannot write flight recording {path}: {error}", file=sys.stderr)
            return
        print(f"-- flight recording written to {path}", file=sys.stderr)

    try:
        from repro.telemetry.scopes import trace_scope

        with trace_scope(tracer, "run", file=args.file, vm=args.vm):
            vm.run()
    except VMError as error:
        print(f"runtime error: {error}", file=sys.stderr)
        if publisher is not None:
            publisher.close()
        dump_flight(f"guest fault: {type(error).__name__}")
        if metrics_server is not None:
            metrics_server.stop()
        return 1
    except Exception:
        # Host crash: this is exactly what the flight recorder is for.
        dump_flight("host crash")
        if metrics_server is not None:
            metrics_server.stop()
        raise

    if publisher is not None:
        publisher.flush(vm)
        publisher.close()
        print(f"-- {publisher.describe()}", file=sys.stderr)

    for value in vm.output:
        print(value)
    if args.flight_dump:
        dump_flight("requested via --flight-dump")
    if metrics_server is not None:
        metrics_server.stop()
    if tracer is not None and args.trace:
        from repro.telemetry import export

        try:
            export(tracer, args.trace, args.trace_format)
        except OSError as error:
            print(f"cannot write trace {args.trace}: {error}", file=sys.stderr)
            return 1
        print(
            f"-- trace ({args.trace_format}, {len(tracer.events)} events) "
            f"written to {args.trace}",
            file=sys.stderr,
        )
    if args.save_profile:
        source = profiler if profiler is not None else perfect
        path_rows = path_tracker.profile if path_tracker is not None else None
        if (source is None or isinstance(source, CBSLoopProfiler)) and (
            path_rows is None
        ):
            print(
                "note: --save-profile needs a DCG profiler (cbs/timer), "
                "--dcg, or --paths; nothing saved",
                file=sys.stderr,
            )
        else:
            from repro.profiling.dcg import DCG

            dcg = (
                source.dcg
                if source is not None and not isinstance(source, CBSLoopProfiler)
                else DCG()
            )
            try:
                save_profile(dcg, program, args.save_profile, paths=path_rows)
            except OSError as error:
                print(
                    f"cannot write profile {args.save_profile}: {error}",
                    file=sys.stderr,
                )
                return 1
            print(f"-- profile saved to {args.save_profile}", file=sys.stderr)
    if args.stats:
        print(
            f"-- steps={vm.steps} vtime={vm.time} calls={vm.call_count} "
            f"ticks={vm.ticks} methods={vm.methods_executed} "
            f"compile_time={vm.code_cache.compile_time}",
            file=sys.stderr,
        )
        print(
            f"-- fusion: sites={vm.code_cache.fused_sites} "
            f"dispatches={vm.fused_dispatches} deopts={vm.fusion_deopts}",
            file=sys.stderr,
        )
        if vm.code_cache.ic:
            print(
                f"-- ic: sites={vm.code_cache.ic_sites} "
                f"static_sites={vm.code_cache.ic_static_sites} "
                f"megamorphic={vm.code_cache.megamorphic_sites} "
                f"misses={vm.ic_misses} transitions={vm.ic_transitions} "
                f"receiver_calls={vm.code_cache.receiver_cell_total()}",
                file=sys.stderr,
            )
        else:
            print("-- ic: disabled (--no-ic)", file=sys.stderr)
        if args.no_jit:
            print("-- jit: disabled (--no-jit)", file=sys.stderr)
        else:
            compiled, eligible = vm.code_cache.jit_methods()
            print(
                f"-- jit: compiles={vm.jit_compiles} "
                f"methods={compiled}/{eligible} "
                f"compile_s={vm.jit_compile_s:.4f} "
                f"entries={vm.jit_entries} osr={vm.jit_osr_entries} "
                f"deopts={vm.jit_deopts} guard_exits={vm.jit_guard_exits} "
                f"call_exits={vm.jit_call_exits} "
                f"return_exits={vm.jit_return_exits} "
                f"leaf_calls={vm.jit_leaf_calls} "
                f"direct_calls={vm.jit_direct_calls} "
                f"poly_calls={vm.jit_poly_calls} "
                f"unwinds={vm.jit_unwinds}",
                file=sys.stderr,
            )
            from repro.vm.jit import exit_sites

            for name, pc, kind, count in exit_sites(vm)[:5]:
                print(
                    f"-- jit exit: {name}@{pc} {kind} x{count}", file=sys.stderr
                )
        if path_tracker is not None:
            s = path_tracker.summary()
            print(
                f"-- paths: mode={s['mode']} total={s['total']} "
                f"distinct={s['distinct']} increments={s['increments']} "
                f"windows={s['windows']}",
                file=sys.stderr,
            )
        if publisher is not None:
            print(
                f"-- fleet: batches_sent={publisher.batches_sent} "
                f"batches_dropped={publisher.batches_dropped} "
                f"edges_sent={publisher.edges_sent} "
                f"server_dead={int(publisher.server_dead)}",
                file=sys.stderr,
            )
    if isinstance(profiler, CBSLoopProfiler):
        print("-- sampled loop profile:", file=sys.stderr)
        print(profiler.describe(program), file=sys.stderr)
    elif profiler is not None and args.dcg:
        from repro.profiling.metrics import accuracy

        print("-- sampled dynamic call graph:", file=sys.stderr)
        print(profiler.dcg.describe(program, limit=12), file=sys.stderr)
        print(
            f"-- accuracy vs exhaustive: "
            f"{accuracy(profiler.dcg, perfect.dcg):.1f}%",
            file=sys.stderr,
        )
    elif args.dcg:
        print("-- exhaustive dynamic call graph:", file=sys.stderr)
        print(perfect.dcg.describe(program, limit=12), file=sys.stderr)
    if path_tracker is not None:
        print("-- path profile:", file=sys.stderr)
        print(path_tracker.profile.describe(program, limit=8), file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import time

    from repro.fleet.repository import RepositoryError
    from repro.fleet.service import run_service

    def ready(address):
        print(
            f"-- fleet service listening on {address[0]}:{address[1]} "
            f"(repository {args.root})",
            file=sys.stderr,
            flush=True,
        )

    def http_ready(address):
        print(
            f"-- observability on http://{address[0]}:{address[1]} "
            f"(/metrics /healthz /status)",
            file=sys.stderr,
            flush=True,
        )

    tracer = None
    if args.trace:
        from repro.telemetry import Tracer

        # The service has no virtual clock; merge events are stamped
        # with wall-clock microseconds so Chrome traces from a client
        # (virtual time) and the server still stitch by flow id.
        started = time.monotonic_ns()
        tracer = Tracer(clock=lambda: (time.monotonic_ns() - started) // 1000)

    try:
        asyncio.run(
            run_service(
                args.root,
                host=args.host,
                port=args.port,
                decay=args.decay,
                max_edges=args.max_edges,
                ready=ready,
                http_port=args.http_port,
                http_ready=http_ready if args.http_port is not None else None,
                telemetry=tracer,
                rate=args.rate,
                burst=args.burst,
            )
        )
    except (KeyboardInterrupt, asyncio.CancelledError):
        # SIGINT / SIGTERM: the serve coroutine was cancelled and has
        # already stopped the service (drain, persist) on its way out.
        print("-- fleet service stopped", file=sys.stderr)
    except (OSError, ValueError, RepositoryError) as error:
        raise SystemExit(f"cannot start fleet service: {error}")
    finally:
        if tracer is not None:
            from repro.telemetry import export

            try:
                export(tracer, args.trace, args.trace_format)
            except OSError as error:
                print(f"cannot write trace {args.trace}: {error}", file=sys.stderr)
            else:
                print(
                    f"-- trace ({args.trace_format}, {len(tracer.events)} events) "
                    f"written to {args.trace}",
                    file=sys.stderr,
                )
    return 0


def _cmd_fleet_bench(args) -> int:
    """Load-test the fleet service: throughput, latency, zero edge loss."""
    from repro.fleet.bench import run_fleet_bench

    return run_fleet_bench(args)


def _cmd_top(args) -> int:
    """Poll a fleet service's ``/status`` endpoint into a terminal view."""
    import http.client
    import json as json_module
    import time
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.harness.report import render_table

    url = f"http://{args.address}/status"

    def fetch() -> dict:
        with urlopen(url, timeout=5.0) as response:
            status = json_module.loads(response.read().decode())
        if not isinstance(status, dict):
            raise ValueError("/status did not return a JSON object")
        return status

    def render(status: dict) -> str:
        blocks = []
        totals = status.get("totals", {})
        blocks.append(
            render_table(
                ["Programs", "Merges", "Rejected", "Connections", "Drops", "Quarantined"],
                [[
                    len(status.get("programs", {})),
                    totals.get("merges", 0),
                    totals.get("rejected", 0),
                    totals.get("connections", 0),
                    totals.get("client_drops", 0),
                    totals.get("quarantined", 0),
                ]],
                title=f"fleet service @ {args.address}",
            )
        )
        program_rows = [
            [
                fingerprint[:16],
                entry.get("edges", "-"),
                entry.get("runs", "-"),
                entry.get("total_weight", "-"),
                entry.get("epoch", "-"),
                entry.get("publishes", "-"),
            ]
            for fingerprint, entry in sorted(status.get("programs", {}).items())
        ]
        if program_rows:
            blocks.append(
                render_table(
                    ["Program", "Edges", "Runs", "Weight", "Epoch", "Publishes"],
                    program_rows,
                    title="aggregates",
                )
            )
        client_rows = [
            [
                run_id[:16],
                entry.get("publishes", 0),
                entry.get("edges", 0),
                entry.get("last_seq", "-"),
                entry.get("dropped", 0),
                entry.get("drop_rate", 0.0),
            ]
            for run_id, entry in sorted(status.get("clients", {}).items())
        ]
        if client_rows:
            blocks.append(
                render_table(
                    ["Client", "Publishes", "Edges", "LastSeq", "Dropped", "DropRate"],
                    client_rows,
                    title="publishers",
                )
            )
        return "\n".join(blocks)

    while True:
        try:
            status = fetch()
        except (OSError, URLError, ValueError, http.client.HTTPException) as error:
            raise SystemExit(f"cannot poll {url}: {error}")
        if not args.once:
            print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
        print(render(status))
        if args.once:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_report(args) -> int:
    from repro.telemetry import TraceFormatError, load_trace, summarize_trace

    try:
        trace = load_trace(args.trace_file)
    except TraceFormatError as error:
        raise SystemExit(str(error))
    if args.json:
        import json as json_module

        from repro.telemetry.summary import summary_dict

        print(
            json_module.dumps(
                summary_dict(trace, histograms=not args.no_histograms), indent=2
            )
        )
        return 0
    print(summarize_trace(trace, histograms=not args.no_histograms))
    return 0


def _cmd_bench(args) -> int:
    """Fan a (benchmark × profiler × seed) sweep across worker processes.

    Cell results are deterministic and ordered, so the output is
    identical for any ``--jobs`` value; only the wall-clock line (and
    the ``wall_seconds`` JSON field) varies.
    """
    import json
    import time

    from repro.benchsuite.suite import BENCHMARKS
    from repro.harness.parallel import PROFILER_FACTORIES, SweepCell, run_sweep
    from repro.harness.report import render_table

    names = args.benchmarks.split(",") if args.benchmarks else list(BENCHMARKS)
    unknown = sorted(set(names) - set(BENCHMARKS))
    if unknown:
        raise SystemExit(
            f"unknown benchmark(s): {', '.join(unknown)} "
            f"(available: {', '.join(BENCHMARKS)})"
        )
    profilers = args.profilers.split(",")
    bad = sorted(set(profilers) - set(PROFILER_FACTORIES))
    if bad:
        raise SystemExit(
            f"unknown profiler(s): {', '.join(bad)} "
            f"(available: {', '.join(sorted(PROFILER_FACTORIES))})"
        )
    seeds = [int(s) for s in args.seeds.split(",")]

    cells: list[SweepCell] = []
    for name in names:
        for profiler in profilers:
            if profiler == "cbs":
                # Only CBS consumes a PRNG seed; other profilers get one
                # cell per benchmark regardless of the seed list.
                for seed in seeds:
                    cells.append(
                        SweepCell(
                            benchmark=name,
                            size=args.size,
                            profiler="cbs",
                            profiler_args=(
                                ("stride", args.stride),
                                ("samples_per_tick", args.samples),
                                ("seed", seed),
                            ),
                            vm=args.vm,
                        )
                    )
            else:
                cells.append(
                    SweepCell(
                        benchmark=name, size=args.size, profiler=profiler, vm=args.vm
                    )
                )

    started = time.perf_counter()
    results = run_sweep(cells, args.jobs)
    elapsed = time.perf_counter() - started

    def cell_seed(cell):
        return dict(cell.profiler_args).get("seed")

    if args.json:
        payload = {
            "size": args.size,
            "vm": args.vm,
            "jobs": args.jobs,
            "wall_seconds": round(elapsed, 3),
            "cells": [
                {
                    "benchmark": r.cell.benchmark,
                    "profiler": r.cell.profiler,
                    "seed": cell_seed(r.cell),
                    "accuracy": r.accuracy,
                    "overhead_percent": r.overhead_percent,
                    "samples": r.samples,
                    "vtime": r.time,
                }
                for r in results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            [
                r.cell.benchmark,
                r.cell.profiler,
                cell_seed(r.cell) if cell_seed(r.cell) is not None else "-",
                r.accuracy,
                r.overhead_percent,
                r.samples,
                r.time,
            ]
            for r in results
        ]
        print(
            render_table(
                ["Benchmark", "Profiler", "Seed", "Acc", "Ovhd%", "Samples", "VTime"],
                rows,
                title=f"Profiler sweep ({args.size}, {args.vm})",
            )
        )
        print(f"{len(results)} cells in {elapsed:.1f}s (jobs={args.jobs})")
    return 0


def _cmd_disasm(args) -> int:
    program = _load(args.file)
    if sum((args.fused, args.ic, args.paths, args.jit, args.spec)) > 1:
        raise SystemExit(
            "--fused, --ic, --paths, --jit, and --spec are separate views; "
            "pick one"
        )
    if args.method is not None:
        if args.fused or args.ic or args.paths or args.jit or args.spec:
            raise SystemExit("--method applies to the plain bytecode view only")
        count = len(program.functions)
        if not 0 <= args.method < count:
            raise SystemExit(
                f"method index {args.method} out of range "
                f"(program has {count} function{'s' if count != 1 else ''}: "
                f"0..{count - 1})"
            )
        from repro.bytecode.disassembler import (
            describe_method_plan,
            disassemble_function,
        )

        function = program.functions[args.method]
        print(f"-- {describe_method_plan(function, program)}")
        print(disassemble_function(function, program))
        return 0
    if args.fused:
        from repro.bytecode.disassembler import disassemble_fused

        print(disassemble_fused(program), end="")
    elif args.ic:
        from repro.bytecode.disassembler import disassemble_ic

        print(disassemble_ic(program), end="")
    elif args.paths:
        from repro.bytecode.disassembler import disassemble_paths

        print(disassemble_paths(program), end="")
    elif args.jit:
        from repro.bytecode.disassembler import disassemble_jit

        print(disassemble_jit(program), end="")
    elif args.spec:
        from repro.bytecode.disassembler import disassemble_spec

        print(disassemble_spec(program), end="")
    else:
        print(disassemble(program))
    return 0


def _cmd_fuzz(args) -> int:
    import json as json_module
    import time

    from repro.fuzz.campaign import replay_corpus, run_campaign, save_reproducers

    if args.replay:
        if not os.path.isdir(args.replay):
            raise SystemExit(f"corpus directory not found: {args.replay}")
        results = replay_corpus(args.replay, vm_name=args.vm)
        if not results:
            raise SystemExit(f"no .mini/.asm reproducers in {args.replay}")
        failing = [(path, violations) for path, violations in results if violations]
        if args.json:
            print(
                json_module.dumps(
                    {
                        "replayed": len(results),
                        "failing": [
                            {
                                "path": path,
                                "violations": [v.as_dict() for v in violations],
                            }
                            for path, violations in failing
                        ],
                    },
                    indent=2,
                )
            )
        else:
            for path, violations in results:
                status = "FAIL" if violations else "ok"
                print(f"{status:4s} {path}")
                for violation in violations[:3]:
                    print(f"       {violation.invariant} @ {violation.cell}")
        if failing:
            print(
                f"-- {len(failing)}/{len(results)} reproducers regressed",
                file=sys.stderr,
            )
            return 1
        print(f"-- {len(results)} reproducers clean", file=sys.stderr)
        return 0

    if args.seeds <= 0:
        raise SystemExit("--seeds must be positive")
    started = time.perf_counter()

    def progress(partial):
        if partial.checked % 50 == 0:
            print(
                f"-- {partial.checked}/{args.seeds} checked, "
                f"{partial.violations} violations",
                file=sys.stderr,
                flush=True,
            )

    result = run_campaign(
        seeds=args.seeds,
        jobs=args.jobs,
        start=args.start,
        vm_name=args.vm,
        shrink=not args.no_shrink,
        progress=progress,
    )
    elapsed = time.perf_counter() - started

    saved: list[str] = []
    if args.save_repros and result.reproducers:
        saved = save_reproducers(result, args.save_repros)

    if args.json:
        print(
            json_module.dumps(
                {
                    "checked": result.checked,
                    "ok": result.ok,
                    "violations": result.violations,
                    "direct_call_seeds": result.direct_call_seeds,
                    "unwind_seeds": result.unwind_seeds,
                    "poly_tail_seeds": result.poly_tail_seeds,
                    "wall_seconds": round(elapsed, 3),
                    "buckets": {
                        key: {
                            "seeds": [r["seed"] for r in reports],
                            "reproducer": result.reproducers.get(key),
                        }
                        for key, reports in sorted(result.buckets.items())
                    },
                    "saved": saved,
                },
                indent=2,
            )
        )
    else:
        print(
            f"-- fuzz: {result.checked} programs checked "
            f"({result.ok} clean) in {elapsed:.1f}s (jobs={args.jobs})"
        )
        print(
            f"-- jit coverage: direct calls in {result.direct_call_seeds}, "
            f"unwinds in {result.unwind_seeds}, "
            f"polymorphic tails in {result.poly_tail_seeds} "
            f"of {result.checked} programs"
        )
        for key, reports in sorted(result.buckets.items()):
            seeds = [r["seed"] for r in reports]
            print(f"BUCKET {key}")
            print(f"  seeds: {seeds[:8]}{'...' if len(seeds) > 8 else ''}")
            repro = result.reproducers.get(key)
            if repro is not None:
                print(f"  shrunk reproducer ({repro['lines']} lines):")
                for line in repro["source"].splitlines():
                    print(f"    {line}")
        for path in saved:
            print(f"-- reproducer written to {path}", file=sys.stderr)
    if result.violations:
        print(
            f"-- {result.violations} invariant violation(s) in "
            f"{len(result.buckets)} bucket(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_check(args) -> int:
    program = _load(args.file)
    print(
        f"{args.file}: OK ({len(program.classes)} classes, "
        f"{len(program.functions)} functions, "
        f"{program.total_bytecode_size()} bytecode bytes)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-mini", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="compile and execute a Mini program")
    run.add_argument("file")
    run.add_argument("--vm", choices=["jikes", "j9"], default="jikes")
    run.add_argument(
        "--profile",
        choices=["cbs", "timer", "whaley", "loops", "none"],
        default="none",
    )
    run.add_argument(
        "--save-profile", metavar="PATH", help="write the collected DCG as JSON"
    )
    run.add_argument(
        "--load-profile",
        metavar="PATH",
        help="pre-optimize using a previously saved profile (offline PGO)",
    )
    run.add_argument(
        "--strict",
        action="store_true",
        help="reject stale/mismatched profiles instead of warning "
        "(applies to --load-profile and --warm-start)",
    )
    run.add_argument(
        "--publish",
        metavar="HOST:PORT",
        help="stream DCG deltas to a fleet profile service (repro-mini serve)",
    )
    run.add_argument(
        "--publish-every",
        type=int,
        default=50,
        metavar="K",
        help="batch a delta every K virtual-timer ticks (default 50)",
    )
    run.add_argument(
        "--publish-epoch",
        type=int,
        default=0,
        metavar="N",
        help="profile age stamp; newer epochs dominate under server decay",
    )
    run.add_argument(
        "--warm-start",
        action="store_true",
        help="seed the adaptive optimizer from the fleet's aggregated "
        "profile before running (implies --adaptive; needs --publish)",
    )
    run.add_argument("--stride", type=int, default=3)
    run.add_argument("--samples", type=int, default=16)
    run.add_argument(
        "--skip-policy",
        choices=list(SKIP_POLICIES),
        default="random",
        help="CBS initial-skip selection (paper §4)",
    )
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="PRNG seed for cbs/loops profilers (default: the profiler's own)",
    )
    run.add_argument(
        "--context-depth",
        type=int,
        default=1,
        help="CBS calling-context depth (>1 records a CCT alongside the DCG)",
    )
    run.add_argument("--opt", type=int, choices=[0, 1], default=0)
    run.add_argument(
        "--no-fuse",
        action="store_true",
        help="disable superinstruction fusion (classic one-op dispatch; "
        "bit-identical results, slower host execution)",
    )
    run.add_argument(
        "--no-ic",
        action="store_true",
        help="disable polymorphic inline caches (dict-vtable dispatch; "
        "bit-identical results, slower host execution, no exact "
        "receiver profile)",
    )
    run.add_argument(
        "--no-jit",
        action="store_true",
        help="disable the template JIT (interpreter-only dispatch; "
        "bit-identical results, slower host execution)",
    )
    run.add_argument(
        "--paths",
        choices=["exhaustive", "mincov", "cbs"],
        default=None,
        metavar="MODE",
        help="collect Ball-Larus path profiles (exhaustive, mincov, cbs); "
        "bit-identical program results, charged instrumentation overhead",
    )
    run.add_argument(
        "--adaptive", action="store_true", help="enable adaptive recompilation"
    )
    run.add_argument("--stats", action="store_true", help="print VM statistics")
    run.add_argument("--dcg", action="store_true", help="print the call graph")
    run.add_argument(
        "--trace", metavar="FILE", help="record telemetry events/metrics to FILE"
    )
    run.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="trace file format (chrome = trace_event JSON for chrome://tracing)",
    )
    run.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="P",
        help="serve /metrics, /healthz, and /status on 127.0.0.1:P while "
        "the program runs (0 picks an ephemeral port)",
    )
    run.add_argument(
        "--flight-dump",
        metavar="PATH",
        help="flight-recorder dump path (default PROGRAM.flight.jsonl; "
        "giving it explicitly also dumps on clean exits)",
    )
    run.add_argument(
        "--no-flight",
        action="store_true",
        help="disable the always-on flight recorder",
    )
    run.set_defaults(handler=_cmd_run)

    serve = commands.add_parser(
        "serve", help="run the fleet profile-aggregation service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8957,
        help="TCP port to listen on (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--root",
        default="fleet-profiles",
        metavar="DIR",
        help="snapshot repository directory (created if missing)",
    )
    serve.add_argument(
        "--decay",
        type=float,
        default=1.0,
        help="per-epoch weight decay in (0, 1]; 1.0 disables aging",
    )
    serve.add_argument(
        "--max-edges",
        type=int,
        default=None,
        metavar="N",
        help="prune persisted snapshots to the N heaviest edges",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="R",
        help="per-client token-bucket limit: R publishes/sec (busy replies "
        "with retry_after above it)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="B",
        help="token-bucket burst depth for --rate (default max(2R, 8))",
    )
    serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="P",
        help="also serve /metrics, /healthz, and /status on --host:P "
        "(0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--trace",
        metavar="FILE",
        help="record the service's telemetry (merge events, wall-clock "
        "stamped) to FILE on shutdown",
    )
    serve.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="trace file format for --trace",
    )
    serve.set_defaults(handler=_cmd_serve)

    top = commands.add_parser(
        "top", help="live terminal view of a fleet service's /status endpoint"
    )
    top.add_argument("address", metavar="HOST:PORT", help="observability address")
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between polls (default 2)",
    )
    top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    top.set_defaults(handler=_cmd_top)

    fleet_bench = commands.add_parser(
        "fleet-bench",
        help="replay synthetic publishers against a live fleet service; "
        "report throughput, latency and edge loss",
    )
    fleet_bench.add_argument(
        "--publishers", type=int, default=1000, help="synthetic publishers"
    )
    fleet_bench.add_argument(
        "--batches", type=int, default=4, help="delta batches per publisher"
    )
    fleet_bench.add_argument(
        "--edges", type=int, default=20, help="edges per delta batch"
    )
    fleet_bench.add_argument(
        "--programs", type=int, default=32, help="distinct program fingerprints"
    )
    fleet_bench.add_argument(
        "--jobs", type=int, default=8, help="concurrent load connections"
    )
    fleet_bench.add_argument(
        "--quick", action="store_true", help="small fleet, fewer connections"
    )
    fleet_bench.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    fleet_bench.add_argument(
        "--write", metavar="PATH", help="write the summary JSON to PATH"
    )
    fleet_bench.add_argument(
        "--check", metavar="PATH", help="gate the run against a baseline JSON"
    )
    fleet_bench.add_argument(
        "--max-regress",
        type=float,
        default=0.15,
        help="allowed fractional throughput / p99 regression vs a baseline "
        "of the same shape (default 0.15)",
    )
    fleet_bench.set_defaults(handler=_cmd_fleet_bench)

    report = commands.add_parser(
        "report", help="summarize a telemetry trace written by run --trace"
    )
    report.add_argument("trace_file")
    report.add_argument(
        "--no-histograms",
        action="store_true",
        help="omit the per-histogram bucket tables",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON mirroring the table summary",
    )
    report.set_defaults(handler=_cmd_report)

    bench = commands.add_parser(
        "bench", help="run a profiler sweep over the benchmark suite, in parallel"
    )
    bench.add_argument(
        "--benchmarks",
        metavar="A,B,...",
        help="comma-separated benchmark names (default: the whole suite)",
    )
    bench.add_argument(
        "--profilers",
        default="cbs",
        metavar="P,Q,...",
        help="comma-separated profilers: cbs, timer, exhaustive (default cbs)",
    )
    bench.add_argument(
        "--seeds",
        default="1234",
        metavar="S,T,...",
        help="comma-separated CBS seeds; one cell per seed (default 1234)",
    )
    bench.add_argument("--size", default="small")
    bench.add_argument("--vm", choices=["jikes", "j9"], default="jikes")
    bench.add_argument("--stride", type=int, default=3)
    bench.add_argument("--samples", type=int, default=16)
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; results are identical for any value",
    )
    bench.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    bench.set_defaults(handler=_cmd_bench)

    disasm = commands.add_parser("disasm", help="print a program's bytecode")
    disasm.add_argument("file")
    disasm.add_argument(
        "--fused",
        action="store_true",
        help="show the quickened (superinstruction) stream the VM dispatches",
    )
    disasm.add_argument(
        "--ic",
        action="store_true",
        help="show the inline-cache view: quickening call sites, "
        "dispatch-table fan-out, and leaf-template eligibility",
    )
    disasm.add_argument(
        "--method",
        type=int,
        default=None,
        metavar="N",
        help="disassemble only the function with index N",
    )
    disasm.add_argument(
        "--paths",
        action="store_true",
        help="show the Ball-Larus path view: per-method CFG blocks, edge "
        "increments, path counts, and minimum-coverage placement",
    )
    disasm.add_argument(
        "--jit",
        action="store_true",
        help="show the template JIT view: the generated host function "
        "for each compilable method, with entry/OSR arms and inlined "
        "call sites",
    )
    disasm.add_argument(
        "--spec",
        action="store_true",
        help="annotate each instruction with its declarative opcode-spec "
        "row: stack effect, kind, size, fault modes, and site classes "
        "(fusable / quicken / step-limit / yieldpoint)",
    )
    disasm.set_defaults(handler=_cmd_disasm)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential-fuzz the fuse × ic × jit × profiler × telemetry matrix",
    )
    fuzz.add_argument(
        "--seeds",
        type=int,
        default=50,
        metavar="N",
        help="number of generated programs to check (default 50)",
    )
    fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="K",
        help="worker processes (0 = one per CPU; results are "
        "identical for any value)",
    )
    fuzz.add_argument(
        "--start",
        type=int,
        default=0,
        metavar="S",
        help="first seed value (campaigns are reproducible: same "
        "seeds, same findings)",
    )
    fuzz.add_argument("--vm", choices=["jikes", "j9"], default="jikes")
    fuzz.add_argument(
        "--save-repros",
        metavar="DIR",
        help="write each bucket's shrunk reproducer into DIR",
    )
    fuzz.add_argument(
        "--replay",
        metavar="DIR",
        help="re-check a committed reproducer corpus instead of generating",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip minimizing violating programs (faster triage-only runs)",
    )
    fuzz.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    fuzz.set_defaults(handler=_cmd_fuzz)

    check = commands.add_parser("check", help="parse and type check only")
    check.add_argument("file")
    check.set_defaults(handler=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pipe (head, less) closed early; not an error.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
