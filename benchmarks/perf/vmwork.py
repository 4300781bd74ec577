"""The four VM workloads: compile_wide, run_loops, run_calls, profile_cycle.

Each workload is a set of guest programs plus the sequence of public
``repro`` calls one of the system's users makes on them.  ``rep`` is
the untimed-from-inside pass the end-to-end metrics come from (whole
public entry points, as a user calls them); ``traced_rep`` calls the
stages behind those entry points one by one so each gets a span and a
per-layer time.  README.md records why each program is where it is.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
import tempfile
import time
import typing

from repro.adaptive.controller import AdaptiveConfig, AdaptiveSystem
from repro.adaptive.modes import jit_only_cache
from repro.benchsuite.generator import GeneratorConfig, generate_source
from repro.bytecode.verifier import verify_program
from repro.frontend.codegen import compile_program, compile_source
from repro.frontend.typecheck import typecheck
from repro.inlining.new_inliner import NewJikesInliner
from repro.lang import ast_nodes
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.opt.pipeline import optimize_function
from repro.profiling.cbs import CBSProfiler
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.metrics import accuracy
from repro.profiling.serialize import load_profile, save_profile
from repro.telemetry.ring import FlightRecorder
from repro.telemetry.tracer import Tracer
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter
from repro.vm.jit.compiler import compile_method, vm_jit_sig
from repro.vm.runtime import CodeCache

import oracle
from measure import OUT, SRC, Recorder, Workload, geomean

INTERP = jikes_config()
JIT = jikes_config(jit=True)


@dataclasses.dataclass
class Item:
    """One guest program with everything set-up derives from it."""

    name: str
    source: str
    program: object
    tokens: int
    expected: dict
    pinned_accuracy: float | None = None
    #: Seconds the live oracle run took (0 when the oracle is committed).
    oracle_s: float = 0.0


def make_item(name: str, source: str, expected: dict | None, pinned=None) -> Item:
    program = compile_source(source)
    oracle_s = 0.0
    if expected is None:
        started = time.perf_counter()
        expected = oracle.reference(program)
        oracle_s = time.perf_counter() - started
    return Item(
        name=name,
        source=source,
        program=program,
        tokens=len(tokenize(source)),
        expected=expected,
        pinned_accuracy=pinned,
        oracle_s=oracle_s,
    )


def suite_items(names, size: str, seed: int) -> list[Item]:
    """Committed-oracle programs in a seed-shuffled order (the order is
    the only thing the seed can vary without invalidating the oracle)."""
    expected = oracle.load_expected()
    items = [
        make_item(
            name,
            oracle.source_for(name, size),
            expected["programs"][f"{name}/{size}"],
            expected["pinned"][f"{name}/{size}"]["cbs_accuracy_pct"],
        )
        for name in names
    ]
    random.Random(seed).shuffle(items)
    return items


def count_ast_nodes(node) -> int:
    if isinstance(node, (list, tuple)):
        return sum(count_ast_nodes(child) for child in node)
    if not dataclasses.is_dataclass(node) or type(node).__module__ != ast_nodes.__name__:
        return 0
    return 1 + sum(
        count_ast_nodes(getattr(node, field.name)) for field in dataclasses.fields(node)
    )


# -- checks against the oracle ---------------------------------------------------------


def check_plain(rec: Recorder, item: Item, vm, what: str) -> None:
    """An unprofiled run must match the oracle transcript bit for bit."""
    seen = {"output": list(vm.output), "time": vm.time, "steps": vm.steps, "ticks": vm.ticks}
    rec.check(seen == item.expected, f"{what} of {item.name} diverged from the oracle")


def check_hooked(rec: Recorder, item: Item, vm, what: str) -> None:
    """Profiling moves virtual time (that is its overhead) and nothing else."""
    rec.check(
        list(vm.output) == item.expected["output"] and vm.steps == item.expected["steps"],
        f"{what} of {item.name} changed output or steps",
    )


def check_output(rec: Recorder, item: Item, vm, what: str) -> None:
    """Optimised code may take fewer steps; the answer may not change."""
    rec.check(
        list(vm.output) == item.expected["output"],
        f"{what} of {item.name} changed the program's output",
    )


# -- stages shared by the workloads ----------------------------------------------------


def cold_run(source: str):
    """Source text to answer with the ``repro-mini run`` default tiers."""
    vm = Interpreter(compile_source(source), JIT)
    vm.run()
    return vm


def run_vm(vm):
    vm.run()
    return vm


def staged_cold_run(rec: Recorder, item: Item):
    """``cold_run`` with every stage behind it called, and timed, apart."""
    name = item.name
    with rec.span("cold_run", name):
        tokens = rec.timed("lang.lexer.tokenize", name, tokenize, item.source, cold=True)
        tree = rec.timed(
            "lang.parser.parse", name, lambda: Parser(tokens).parse_program(), cold=True
        )
        checked = rec.timed("frontend.typecheck", name, typecheck, tree, cold=True)
        program = rec.timed(
            "frontend.compile_program", name, compile_program, checked, cold=True
        )
        # compile_program verifies before returning; timed again on its
        # own so code generation's self time is the difference.
        rec.timed("bytecode.verifier.verify_program", name, verify_program, program, cold=True)
        cache = rec.timed(
            "vm.runtime.CodeCache", name,
            lambda: CodeCache(program, JIT.cost_model, fuse=JIT.fuse, ic=JIT.ic),
            cold=True,
        )
        vm = rec.timed(
            "vm.jit.run_cold", name, lambda: run_vm(Interpreter(program, JIT, cache)),
            cold=True,
        )
    check_plain(rec, item, vm, "staged cold run")
    rec.count("lang.lexer.tokens", name, len(tokens))
    rec.count("lang.parser.ast_nodes", name, count_ast_nodes(tree))
    rec.count("frontend.codegen.instrs", name, sum(len(f.code) for f in program.functions))
    rec.count("bytecode.program.bytecode_bytes", name, program.total_bytecode_size())
    rec.count("vm.fuse.sites", name, cache.fused_sites)
    rec.count("vm.fuse.span", name, cache.fused_span)
    rec.count("vm.jit.compiles", name, vm.jit_compiles)
    return vm


def tier_runs(rec: Recorder, item: Item) -> None:
    """Interpreter and JIT on the precompiled program, interleaved."""
    name = item.name
    interp = rec.timed("vm.interpreter.run", name, run_vm, Interpreter(item.program, INTERP))
    check_plain(rec, item, interp, "interpreted run")
    # A fresh VM per rep, so JIT compilation and warm-up are inside.
    jit = rec.timed("vm.jit.run", name, run_vm, Interpreter(item.program, JIT), cold=True)
    check_plain(rec, item, jit, "JIT run")
    sig = vm_jit_sig(jit)
    rec.timed(
        "vm.jit.compile_method", name,
        lambda: [
            compile_method(
                method, jit.program, jit.code_cache, jit.config,
                inline_leaves=sig & 1 != 0, emit_paths=sig & 2 != 0,
            )
            for method in jit.code_cache.methods
        ],
    )
    for counter, value in (
        ("vm.interpreter.steps", interp.steps),
        ("vm.interpreter.calls", interp.call_count),
        ("vm.interpreter.fused_dispatches", interp.fused_dispatches),
        ("vm.interpreter.fusion_deopts", interp.fusion_deopts),
        ("vm.ic.misses", interp.ic_misses),
        ("vm.ic.transitions", interp.ic_transitions),
        ("vm.jit.entries", jit.jit_entries + jit.jit_osr_entries),
        ("vm.jit.call_exits", jit.jit_call_exits),
        ("vm.jit.guard_exits", jit.jit_guard_exits),
        ("vm.jit.return_exits", jit.jit_return_exits),
        ("vm.jit.deopts", jit.jit_deopts),
        ("vm.jit.leaf_calls", jit.jit_leaf_calls),
    ):
        rec.count(counter, name, value)


STAGED_COLD_RUN = (
    "lang.lexer.tokenize", "lang.parser.parse", "frontend.typecheck",
    "frontend.compile_program", "bytecode.verifier.verify_program",
    "vm.runtime.CodeCache", "vm.jit.run_cold",
)


def front_end_layers(rec: Recorder, items: list[Item]) -> dict:
    """Per-layer numbers every workload with a front end reports."""
    compile_s = rec.total("frontend.compile_program")
    verify_s = rec.total("bytecode.verifier.verify_program")
    instrs = rec.count_total("frontend.codegen.instrs")
    front_end_s = sum(rec.total(stage) for stage in STAGED_COLD_RUN[:4])
    return {
        "frontend.compile_tokens_per_s": sum(item.tokens for item in items) / front_end_s,
        "lang.lexer.tokenize_s": rec.total("lang.lexer.tokenize"),
        "lang.lexer.tokens": rec.count_total("lang.lexer.tokens"),
        "lang.parser.parse_s": rec.total("lang.parser.parse"),
        "lang.parser.ast_nodes": rec.count_total("lang.parser.ast_nodes"),
        "frontend.typecheck_s": rec.total("frontend.typecheck"),
        "frontend.codegen_s": compile_s - verify_s,
        "frontend.codegen.instrs": instrs,
        "bytecode.verifier.verify_s": verify_s,
        "bytecode.program.bytecode_bytes": rec.count_total("bytecode.program.bytecode_bytes"),
        "vm.runtime.codecache_build_s": rec.total("vm.runtime.CodeCache"),
        "vm.fuse.sites": rec.count_total("vm.fuse.sites"),
        "vm.fuse.static_coverage": rec.count_total("vm.fuse.span") / instrs,
        "vm.jit.compiles": rec.count_total("vm.jit.compiles"),
    }


def tier_layers(rec: Recorder, items: list[Item]) -> dict:
    """Per-layer numbers of the interpreter, inline caches and JIT."""
    steps = rec.count_total("vm.interpreter.steps")
    calls = rec.count_total("vm.interpreter.calls")
    interp_s = rec.total("vm.interpreter.run")
    jit_s = rec.total("vm.jit.run")
    compile_s = rec.total("vm.jit.compile_method")
    exits = sum(
        rec.count_total(f"vm.jit.{kind}")
        for kind in ("call_exits", "guard_exits", "return_exits", "deopts")
    )
    return {
        "vm.interpreter.run_s": interp_s,
        "vm.interpreter.steps": steps,
        "vm.interpreter.calls": calls,
        "vm.interpreter.steps_per_call": steps / calls,
        "vm.interpreter.steps_per_s": steps_per_second(rec, "vm.interpreter.run", items),
        "vm.interpreter.fused_dispatch_share":
            rec.count_total("vm.interpreter.fused_dispatches") / steps,
        "vm.interpreter.fusion_deopts": rec.count_total("vm.interpreter.fusion_deopts"),
        "vm.ic.misses": rec.count_total("vm.ic.misses"),
        "vm.ic.transitions": rec.count_total("vm.ic.transitions"),
        "vm.ic.miss_share": rec.count_total("vm.ic.misses") / calls,
        "vm.jit.compile_s": compile_s,
        "vm.jit.compile_share": compile_s / jit_s,
        "vm.jit.run_s": jit_s,
        "vm.jit.steps_per_s": steps_per_second(rec, "vm.jit.run", items),
        "vm.jit.entries": rec.count_total("vm.jit.entries"),
        "vm.jit.call_exits": rec.count_total("vm.jit.call_exits"),
        "vm.jit.guard_exits": rec.count_total("vm.jit.guard_exits"),
        "vm.jit.return_exits": rec.count_total("vm.jit.return_exits"),
        "vm.jit.deopts": rec.count_total("vm.jit.deopts"),
        "vm.jit.leaf_calls": rec.count_total("vm.jit.leaf_calls"),
        "vm.jit.exits_per_kstep": 1000.0 * exits / steps,
        "vm.jit.speedup": geomean(
            [
                rec.fastest("vm.interpreter.run", item.name) / rec.fastest("vm.jit.run", item.name)
                for item in items
            ]
        ),
    }


def steps_per_second(rec: Recorder, stage: str, items: list[Item]) -> float:
    """Geometric mean over programs of guest steps per host second."""
    return geomean(
        [item.expected["steps"] / rec.fastest(stage, item.name) for item in items]
    )


class ColdRunWorkload(Workload):
    """A workload whose cold path is ``cold_run`` over its programs."""

    def same_work_seconds(self, rec: Recorder, traced: Recorder) -> tuple[float, float]:
        return rec.total("cold_run"), sum(traced.total(stage) for stage in STAGED_COLD_RUN)


# -- compile_wide ----------------------------------------------------------------------


class CompileWide(ColdRunWorkload):
    """Wide, shallow generated programs: the front end, the verifier, the
    code-cache build and eager JIT compilation do the work; running the
    ~10k guest steps does almost none."""

    name = "compile_wide"
    programs = 4
    cli_reps = 5

    def prepare(self, seed: int, quick: bool) -> list[Item]:
        classes, methods = (8, 6) if quick else (24, 12)
        return [
            make_item(
                f"wide{index}",
                generate_source(
                    GeneratorConfig(
                        num_classes=classes, methods_per_class=methods,
                        loop_iterations=50, seed=seed * 1000 + index,
                    )
                ),
                expected=None,  # seed-dependent: the oracle runs live
            )
            for index in range(2 if quick else self.programs)
        ]

    def rep(self, rec: Recorder, items: list[Item]) -> None:
        for item in items:
            vm = rec.timed("cold_run", item.name, cold_run, item.source, cold=True)
            check_plain(rec, item, vm, "cold run")
            rec.timed("frontend.compile_source", item.name, compile_source, item.source)

    def end_to_end(self, rec: Recorder, items: list[Item]) -> dict:
        return {
            "cold_s": rec.total("cold_run"),
            "steady_per_s": sum(i.tokens for i in items) / rec.total("frontend.compile_source"),
        }

    def traced_rep(self, rec: Recorder, items: list[Item]) -> None:
        for item in items:
            staged_cold_run(rec, item)
            tier_runs(rec, item)

    def traced_once(self, rec: Recorder, items: list[Item], quick: bool) -> None:
        """The subprocess metrics: ``python -m repro.cli run FILE``."""
        item = items[0]
        env = dict(os.environ, PYTHONPATH=SRC)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            path = os.path.join(tmp, "wide.mini")
            with open(path, "w") as handle:
                handle.write(item.source)
            wanted = "".join(f"{value}\n" for value in item.expected["output"])
            for _ in range(2 if quick else self.cli_reps):
                done = self._cli(rec, "cli.run", ["-m", "repro.cli", "run", path], env)
                rec.check(
                    done.returncode == 0 and done.stdout == wanted,
                    "repro.cli run printed the wrong answer",
                )
                self._cli(rec, "cli.import", ["-c", "import repro.cli"], env)
                self._cli(rec, "cli.bare", ["-c", "pass"], env)

    @staticmethod
    def _cli(rec: Recorder, stage: str, argv: list[str], env: dict):
        return rec.timed(
            stage, None,
            lambda: subprocess.run(
                [sys.executable, *argv], env=env, capture_output=True, text=True,
                timeout=120,
            ),
            cold=True,
        )

    def per_layer(self, rec: Recorder, traced: Recorder, items: list[Item]) -> dict:
        cli_run = traced.fastest("cli.run")
        return {
            **front_end_layers(traced, items),
            **tier_layers(traced, items),
            "cli.run_s": cli_run,
            "cli.import_s": traced.fastest("cli.import") - traced.fastest("cli.bare"),
            "cli.run_overhead_s": cli_run - rec.fastest("cold_run", items[0].name),
            "fuzz.specexec.steps_per_s": sum(i.expected["steps"] for i in items)
            / sum(i.oracle_s for i in items),
        }


# -- run_loops / run_calls -------------------------------------------------------------


class RunSet(ColdRunWorkload):
    """Benchsuite programs that spend their time executing guest code.

    ``run_loops`` (thousands of steps per call) and ``run_calls`` (about
    twenty) drive the same VM layer in opposite ways, so each is the
    other's control: straight-line dispatch and fusion on one, the call
    sequence, inline caches and JIT call exits on the other.
    """

    def __init__(self, name: str, programs: tuple[str, ...]):
        self.name = name
        self.programs = programs

    def prepare(self, seed: int, quick: bool) -> list[Item]:
        return suite_items(self.programs, "tiny" if quick else "small", seed)

    def rep(self, rec: Recorder, items: list[Item]) -> None:
        for item in items:
            vm = rec.timed("cold_run", item.name, cold_run, item.source, cold=True)
            check_plain(rec, item, vm, "cold run")
            vm = rec.timed(
                "vm.interpreter.run", item.name, run_vm, Interpreter(item.program, INTERP)
            )
            check_plain(rec, item, vm, "interpreted run")

    def end_to_end(self, rec: Recorder, items: list[Item]) -> dict:
        return {
            "cold_s": rec.total("cold_run"),
            "steady_per_s": steps_per_second(rec, "vm.interpreter.run", items),
        }

    def traced_rep(self, rec: Recorder, items: list[Item]) -> None:
        for item in items:
            staged_cold_run(rec, item)
            tier_runs(rec, item)
            self._telemetry(rec, item)

    @staticmethod
    def _telemetry(rec: Recorder, item: Item) -> None:
        """The same interpreted run with each telemetry sink attached."""
        tracer = Tracer()
        vm = Interpreter(item.program, INTERP)
        vm.attach_telemetry(tracer)
        rec.timed("telemetry.tracer.run", item.name, run_vm, vm)
        check_plain(rec, item, vm, "traced run")
        rec.count("telemetry.tracer.events", item.name, len(tracer.events))
        vm = Interpreter(item.program, INTERP)
        vm.attach_flight(FlightRecorder())
        rec.timed("telemetry.flight.run", item.name, run_vm, vm)
        check_plain(rec, item, vm, "flight-recorded run")

    def per_layer(self, rec: Recorder, traced: Recorder, items: list[Item]) -> dict:
        plain = traced.total("vm.interpreter.run")
        return {
            **front_end_layers(traced, items),
            **tier_layers(traced, items),
            "telemetry.tracer.overhead_ratio": traced.total("telemetry.tracer.run") / plain,
            "telemetry.tracer.events": traced.count_total("telemetry.tracer.events"),
            "telemetry.flight.overhead_ratio": traced.total("telemetry.flight.run") / plain,
        }


# -- profile_cycle ---------------------------------------------------------------------


def measure_profiler_vm(program):
    """The VM ``harness.runner.measure_profiler`` builds: every method
    precompiled at level 0, interpreter only."""
    return Interpreter(program, INTERP, jit_only_cache(program, INTERP.cost_model, level=0))


def cbs_profiler() -> CBSProfiler:
    return CBSProfiler(stride=3, samples_per_tick=16)


class Collected(typing.NamedTuple):
    """What stage (a) hands to stage (b)."""

    vm: Interpreter
    cbs: CBSProfiler
    perfect: ExhaustiveProfiler


def collect(program) -> Collected:
    """Stage (a): one table cell — exhaustive and CBS profilers attached."""
    vm = measure_profiler_vm(program)
    perfect = ExhaustiveProfiler()
    perfect.install(vm)
    cbs = cbs_profiler()
    vm.attach_profiler(cbs)
    vm.run()
    return Collected(vm, cbs, perfect)


def plan_all(policy, program, dcg) -> list:
    plans = [policy.plan_for(function.index, dcg) for function in program.functions]
    return [plan for plan in plans if not plan.is_empty()]


def exploit(program, dcg, path: str):
    """Stage (b): saved profile to the optimised program's answer."""
    save_profile(dcg, program, path)
    offline = load_profile(path, program)
    vm = measure_profiler_vm(program)
    for plan in plan_all(NewJikesInliner(program), program, offline):
        vm.code_cache.install(optimize_function(program, plan).function, 2)
    vm.run()
    return vm


def adapt(program):
    """Stage (c): the adaptive system driven by CBS for two iterations."""
    vm = measure_profiler_vm(program)
    vm.attach_profiler(cbs_profiler())
    adaptive = AdaptiveSystem(program, NewJikesInliner(program), AdaptiveConfig())
    adaptive.install(vm)
    vm.run()
    vm.run()
    return vm, adaptive


class ProfileCycle(Workload):
    """The paper's own use: collect a call-graph profile, then exploit it.

    The interpreter runs *hooked* here — call observer, yieldpoints
    taken, stack walks — so a dispatch change that speeds ``run_*`` but
    slows the hooked arms shows on this workload and nowhere else.
    """

    name = "profile_cycle"
    programs = ("jess", "mtrt")

    def prepare(self, seed: int, quick: bool) -> list[Item]:
        return suite_items(self.programs, "tiny" if quick else "small", seed)

    def rep(self, rec: Recorder, items: list[Item]) -> None:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for item in items:
                got = rec.timed("profiling.collect", item.name, collect, item.program)
                check_hooked(rec, item, got.vm, "profiled run")
                self._check_accuracy(rec, item, got)
                vm = rec.timed(
                    "profiling.exploit", item.name, exploit,
                    item.program, got.cbs.dcg, os.path.join(tmp, item.name + ".json"),
                    cold=True,
                )
                check_output(rec, item, vm, "profile-optimised run")

    @staticmethod
    def _check_accuracy(rec: Recorder, item: Item, got: Collected) -> None:
        measured = accuracy(got.cbs.dcg, got.perfect.dcg)
        rec.check(
            measured == item.pinned_accuracy,
            f"CBS accuracy on {item.name} is {measured!r}, pinned {item.pinned_accuracy!r}",
        )
        rec.count("profiling.cbs.accuracy_pct", item.name, measured)

    def end_to_end(self, rec: Recorder, items: list[Item]) -> dict:
        return {
            "cold_s": rec.total("profiling.exploit"),
            "steady_per_s": steps_per_second(rec, "profiling.collect", items),
        }

    def traced_rep(self, rec: Recorder, items: list[Item]) -> None:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for item in items:
                self._traced_item(rec, item, os.path.join(tmp, item.name + ".json"))

    def _traced_item(self, rec: Recorder, item: Item, path: str) -> None:
        name, program = item.name, item.program

        # Hooked against unhooked, on the identical precompiled VM.
        plain = rec.timed("profiling.unhooked.run", name, run_vm, measure_profiler_vm(program))
        check_plain(rec, item, plain, "unhooked run")
        vm = measure_profiler_vm(program)
        ExhaustiveProfiler().install(vm)
        rec.timed("profiling.exhaustive.run", name, run_vm, vm)
        check_plain(rec, item, vm, "exhaustively profiled run")
        vm = measure_profiler_vm(program)
        vm.attach_profiler(cbs_profiler())
        rec.timed("profiling.cbs.run", name, run_vm, vm)
        check_hooked(rec, item, vm, "CBS run")

        with rec.span("pgo_cycle", name):
            got = rec.timed("profiling.collect", name, collect, program)
            check_hooked(rec, item, got.vm, "profiled run")
            self._check_accuracy(rec, item, got)
            rec.timed("profiling.serialize.save", name, save_profile, got.cbs.dcg, program, path)
            offline = rec.timed("profiling.serialize.load", name, load_profile, path, program)
            policy = NewJikesInliner(program)
            plans = rec.timed("inlining.plan", name, plan_all, policy, program, offline)
            optimized = rec.timed(
                "opt.pipeline.optimize", name,
                lambda: [optimize_function(program, plan) for plan in plans],
            )
            rerun = measure_profiler_vm(program)
            rec.timed(
                "vm.runtime.install", name,
                lambda: [rerun.code_cache.install(r.function, 2) for r in optimized],
            )
            rec.timed("opt.rerun", name, run_vm, rerun)
            check_output(rec, item, rerun, "profile-optimised run")

        vm, adaptive = rec.timed("adaptive.run", name, adapt, program)
        rec.check(
            list(vm.output) == item.expected["output"] * 2,
            f"adaptive run of {name} changed the program's output",
        )
        for counter, value in (
            ("profiling.cbs.samples", got.cbs.samples_taken),
            ("profiling.cbs.virtual_time", got.vm.time),
            ("profiling.dcg.edges", len(got.perfect.dcg)),
            ("profiling.serialize.bytes", os.path.getsize(path)),
            ("inlining.sites_inlined", sum(r.inlines_applied for r in optimized)),
            ("opt.pipeline.functions_optimized", len(optimized)),
            ("opt.pipeline.instrs_after", sum(len(r.function.code) for r in optimized)),
            ("adaptive.controller.recompiles", len(adaptive.events)),
            ("adaptive.controller.virtual_compile_time", vm.code_cache.compile_time),
            ("adaptive.steps", vm.steps),
        ):
            rec.count(counter, name, value)

    def per_layer(self, rec: Recorder, traced: Recorder, items: list[Item]) -> dict:
        unhooked = traced.total("profiling.unhooked.run")
        baseline_time = sum(item.expected["time"] for item in items)
        return {
            "vm.interpreter.run_s": unhooked,
            "vm.interpreter.steps": sum(item.expected["steps"] for item in items),
            "vm.interpreter.steps_per_s":
                steps_per_second(traced, "profiling.unhooked.run", items),
            "profiling.exhaustive.overhead_ratio":
                traced.total("profiling.exhaustive.run") / unhooked,
            "profiling.cbs.overhead_ratio": traced.total("profiling.cbs.run") / unhooked,
            "profiling.cbs.samples": traced.count_total("profiling.cbs.samples"),
            "profiling.cbs.accuracy_pct":
                traced.count_total("profiling.cbs.accuracy_pct") / len(items),
            "profiling.cbs.virtual_overhead_pct": 100.0
                * (traced.count_total("profiling.cbs.virtual_time") - baseline_time)
                / baseline_time,
            "profiling.dcg.edges": traced.count_total("profiling.dcg.edges"),
            "profiling.serialize.save_s": traced.total("profiling.serialize.save"),
            "profiling.serialize.load_s": traced.total("profiling.serialize.load"),
            "profiling.serialize.bytes": traced.count_total("profiling.serialize.bytes"),
            "profiling.pgo_cycle_s":
                rec.total("profiling.collect") + rec.total("profiling.exploit"),
            "inlining.plan_s": traced.total("inlining.plan"),
            "inlining.sites_inlined": traced.count_total("inlining.sites_inlined"),
            "opt.pipeline.optimize_s": traced.total("opt.pipeline.optimize"),
            "opt.pipeline.functions_optimized":
                traced.count_total("opt.pipeline.functions_optimized"),
            "opt.pipeline.instrs_after": traced.count_total("opt.pipeline.instrs_after"),
            "adaptive.controller.recompiles":
                traced.count_total("adaptive.controller.recompiles"),
            "adaptive.controller.virtual_compile_time":
                traced.count_total("adaptive.controller.virtual_compile_time"),
            "adaptive.run_s": traced.total("adaptive.run"),
            "adaptive.steps_per_s": geomean(
                [
                    traced.counts[("adaptive.steps", item.name)]
                    / traced.fastest("adaptive.run", item.name)
                    for item in items
                ]
            ),
        }

    def same_work_seconds(self, rec: Recorder, traced: Recorder) -> tuple[float, float]:
        return rec.total("profiling.exploit"), sum(
            traced.total(stage)
            for stage in (
                "profiling.serialize.save", "profiling.serialize.load", "inlining.plan",
                "opt.pipeline.optimize", "vm.runtime.install", "opt.rerun",
            )
        )


WORKLOADS = {
    "compile_wide": CompileWide(),
    "run_loops": RunSet("run_loops", ("compress", "mpegaudio", "xerces", "db")),
    "run_calls": RunSet(
        "run_calls", ("jess", "javac", "mtrt", oracle.VIRTCALLS)
    ),
    "profile_cycle": ProfileCycle(),
}
