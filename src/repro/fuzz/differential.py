"""Differential execution across the VM configuration matrix.

One program is run under every cell of the ``fuse × ic × jit ×
profiler × telemetry`` matrix and the runs are compared against a
per-profiler reference (``fuse=False, ic=False, jit off, telemetry
off``).

Comparisons are grouped by profiler because profilers are *allowed* to
cost virtual time (the paper measures exactly that overhead): within a
profiler group every observable — output, time, steps, ticks, calls,
methods, DCG edge weights, guest-error transcript, telemetry event
stream — must match bit-for-bit.  Across profiler groups only the
time-independent observables must match: printed output, step count,
call count, methods executed, and the guest-error transcript.

The charge-free rider cell (the flight recorder) claims zero
virtual-time cost, so it must match its group reference bit-for-bit
too.

A host-level Python exception escaping the interpreter (anything that
is not a ``VMError``) is a violation by definition, whatever the cell.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field

from repro.profiling.cbs import CBSProfiler
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.timer_sampler import TimerProfiler
from repro.telemetry.exporters import jsonl_lines
from repro.telemetry.hostcounters import HOST_TIERS
from repro.telemetry.ring import FlightRecorder
from repro.telemetry.tracer import Tracer
from repro.fuzz.specexec import (
    SpecConformanceError,
    run_spec_reference,
    verify_cost_views,
)
from repro.vm.config import config_named
from repro.vm.errors import VMError
from repro.vm.fuse import FUSE_BASE
from repro.vm.interpreter import Interpreter
from repro.vm.jit import JitManager

def _cbs() -> CBSProfiler:
    return CBSProfiler(stride=3, samples_per_tick=16, seed=7)


#: Profiler groups, in comparison order ("none" is the cross-group
#: baseline).  Factories return the fresh collectors of one run: call
#: observers are installed, sampling profilers attached.  ``cbs+instr``
#: is the ``harness.runner.measure_profiler`` shape — a sampler plus an
#: observer, here one that *charges* virtual time on every call
#: notification, which precedes the leaf-tier choice.
PROFILERS = {
    "none": lambda: (),
    "exhaustive": lambda: (ExhaustiveProfiler(),),
    "timer": lambda: (TimerProfiler(),),
    "cbs": lambda: (_cbs(),),
    "cbs+instr": lambda: (_cbs(), ExhaustiveProfiler(charge_costs=True)),
}

#: Fields that must be identical *within* a profiler group.
GROUP_FIELDS = ("output", "time", "steps", "ticks", "calls", "methods", "dcg", "error")

#: Fields that must also be identical *across* profiler groups
#: (everything virtual-time-dependent excluded).
CROSS_FIELDS = ("output", "steps", "calls", "methods", "error")

#: Fields the spec-driven reference executor (repro.fuzz.specexec) must
#: reproduce bit-for-bit against the ``none`` group's reference cell.
#: It models no profiler/yieldpoint dynamics, so only the unprofiled
#: observables are in scope — which is everything, since without a
#: profiler no yieldpoint is ever taken.
SPEC_FIELDS = ("output", "time", "steps", "ticks", "calls", "methods", "error")


@dataclass(frozen=True)
class MatrixCell:
    """One configuration of the differential matrix."""

    fuse: bool
    ic: bool
    profiler: str
    telemetry: bool
    flight: bool = False
    #: Template JIT on: hot bodies run as generated host code that must
    #: de-optimize back to bit-identical interpreter state, so a jit
    #: cell must match the group reference exactly like any other
    #: host-level rewrite (fusion, ICs).
    jit: bool = False
    #: With ``jit``: promote at the product threshold instead of at
    #: first entry, so methods are compiled mid-run — warm inline
    #: caches, live frames — and the interpreted → compiled hand-off is
    #: compared too.  The first-entry cells keep generated code covered
    #: on programs too small to get anything hot.
    lazy_jit: bool = False

    def describe(self) -> str:
        parts = [
            "fuse" if self.fuse else "no-fuse",
            "ic" if self.ic else "no-ic",
            self.profiler,
        ]
        if self.telemetry:
            parts.append("telemetry")
        if self.flight:
            parts.append("flight")
        if self.jit:
            parts.append("jit-lazy" if self.lazy_jit else "jit")
        return "+".join(parts)


def matrix_cells(profiler: str) -> list[MatrixCell]:
    """The cells run for one profiler group: the full ``fuse × ic``
    square without telemetry, the two corners with telemetry on (enough
    to compare event streams), the fully-featured corner again with
    the flight recorder attached — the recorder claims zero virtual-time
    cost, so that cell must match the others bit-for-bit, event lines
    included.  The template JIT joins as three more cells per group —
    the fully-featured corner with the JIT on, silent and with
    telemetry (generated code must neither perturb observables nor
    emit events), both promoting at first entry, and a third at the
    product promotion threshold.  Ten runs per group.  ``cbs+instr``
    is reduced to six:
    the square, the fully-featured telemetry corner and one JIT cell."""
    cells = [
        MatrixCell(fuse, ic, profiler, False)
        for fuse in (False, True)
        for ic in (False, True)
    ]
    if profiler == "cbs+instr":
        cells.append(MatrixCell(True, True, profiler, True))
        cells.append(MatrixCell(True, True, profiler, False, jit=True))
        return cells
    cells.append(MatrixCell(False, False, profiler, True))
    cells.append(MatrixCell(True, True, profiler, True))
    cells.append(MatrixCell(True, True, profiler, True, flight=True))
    cells.append(MatrixCell(True, True, profiler, False, jit=True))
    cells.append(MatrixCell(True, True, profiler, True, jit=True))
    cells.append(MatrixCell(True, True, profiler, False, jit=True, lazy_jit=True))
    return cells


@dataclass
class RunRecord:
    """Everything observable about one run of one cell."""

    cell: MatrixCell
    outcome: str  # "ok" | "error" | "host-crash"
    output: list = field(default_factory=list)
    time: int = 0
    steps: int = 0
    ticks: int = 0
    calls: int = 0
    methods: int = 0
    #: One edge-weight map per collector, in ``PROFILERS`` order.
    dcg: list = field(default_factory=list)
    #: (type name, message, function, pc) for guest VMErrors.
    error: tuple | None = None
    #: JSONL lines (header + events, metrics footer excluded) when the
    #: cell has telemetry on.
    event_lines: list | None = None
    #: Metrics snapshot with the host-bookkeeping keys stripped.
    metrics: dict | None = None
    #: Formatted traceback when the host interpreter itself blew up.
    host_error: str | None = None
    #: The flight recorder that rode along, when the cell had one.
    flight: object = None
    #: The exact receiver profile, ``(caller, pc, class, count)`` rows
    #: of the code cache's receiver cells in sorted order, when the cell
    #: has inline caches on — what the > 40 % guarded-inlining rule
    #: reads.  Generated code bumps these cells itself.
    receivers: list | None = None
    #: JIT entries minus counted exits; anything but 0 means generated
    #: code was entered (or the promotion trampoline bounced) without
    #: leaving through exactly one exit.
    jit_unpaired: int = 0
    #: Calls generated code made into generated code and got back from,
    #: and directly entered activations it handed back to the
    #: interpreter (jit and jit-lazy cells; 0 wherever a hook keeps
    #: every call an exit); and calls completed through a site's
    #: polymorphic tail.  Coverage, not an invariant: the campaign
    #: reports how many seeds exercised each.
    jit_direct_calls: int = 0
    jit_unwinds: int = 0
    jit_poly_calls: int = 0
    #: Superinstruction ids quickened into a method the run executed
    #: (fused cells only): the campaign's per-id reach.
    fused_ids: frozenset = frozenset()


@dataclass
class Violation:
    """One invariant breach for one (program, cell) pair."""

    invariant: str  # e.g. "steps", "error", "events", "host-crash"
    cell: str  # MatrixCell.describe() of the offending cell
    reference: str  # describe() of the cell it was compared against
    detail: str
    error_type: str | None = None

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "cell": self.cell,
            "reference": self.reference,
            "detail": self.detail,
            "error_type": self.error_type,
        }


def _strip_host_metrics(snapshot: dict) -> dict:
    """Drop the metric keys host-level optimizations are allowed to
    differ on (the same exemption the identity test suites grant)."""
    return {k: v for k, v in snapshot.items() if k.partition(".")[0] not in HOST_TIERS}


def run_cell(
    program,
    cell: MatrixCell,
    vm_name: str = "jikes",
    flight_recorder=None,
    **overrides,
) -> RunRecord:
    """Execute ``program`` under one matrix cell and record everything.

    ``flight_recorder`` lets a caller (the campaign's artifact writer)
    supply its own recorder instead of the cell-default fresh one.
    """
    record = RunRecord(cell=cell, outcome="ok")
    flight = flight_recorder
    if flight is None and cell.flight:
        flight = FlightRecorder()
    record.flight = flight
    try:
        # Construction is inside the net too: a program that blows up
        # the code cache at compile time is a host crash, not a test
        # harness error.
        if cell.jit:
            overrides = dict(overrides, jit=True)
        config = config_named(vm_name, fuse=cell.fuse, ic=cell.ic, **overrides)
        vm = Interpreter(program, config)
        profilers = PROFILERS[cell.profiler]()
        for profiler in profilers:
            if isinstance(profiler, ExhaustiveProfiler):
                profiler.install(vm)
            else:
                vm.attach_profiler(profiler)
        tracer = Tracer() if cell.telemetry else None
        if tracer is not None:
            vm.attach_telemetry(tracer)
        if flight is not None:
            vm.attach_flight(flight)
        if cell.jit and not cell.lazy_jit:
            # After the hooks, which decide the compile signature;
            # run() leaves an attached manager alone.
            vm.jit_manager = JitManager(vm, threshold=1)
            vm.jit_manager.attach()
        vm.run()
    except VMError as error:
        record.outcome = "error"
        record.error = (type(error).__name__, str(error), error.function, error.pc)
    except Exception:
        record.outcome = "host-crash"
        record.host_error = traceback.format_exc(limit=8)
        return record

    record.output = list(vm.output)
    record.time = vm.time
    record.steps = vm.steps
    record.ticks = vm.ticks
    record.calls = vm.call_count
    record.methods = vm.methods_executed
    record.jit_unpaired = (
        vm.jit_entries + vm.jit_osr_entries
        - vm.jit_deopts - vm.jit_guard_exits
        - vm.jit_call_exits - vm.jit_return_exits
    )
    record.jit_direct_calls = vm.jit_direct_calls
    record.jit_unwinds = vm.jit_unwinds
    record.jit_poly_calls = vm.jit_poly_calls
    if cell.fuse:
        record.fused_ids = frozenset(
            op
            for method in vm.code_cache.built
            if method is not None and vm._seen[method.index]
            for op in method.fops
            if op >= FUSE_BASE
        )
    if cell.ic:
        record.receivers = sorted(
            (caller, pc, rclass, count[0])
            for (caller, pc), cells in vm.code_cache.receiver_cells.items()
            for rclass, count in cells.items()
        )
    record.dcg = [profiler.dcg.edges() for profiler in profilers]
    if tracer is not None:
        lines = jsonl_lines(tracer)
        record.event_lines = lines[:-1]
        record.metrics = _strip_host_metrics(tracer.metrics.snapshot())
    return record


def _diff(name: str, ref_value, got_value) -> str:
    return f"{name}: reference={ref_value!r} got={got_value!r}"


def _compare(record: RunRecord, reference: RunRecord, fields) -> list[Violation]:
    violations = []
    for name in fields:
        ref_value = getattr(reference, name)
        got_value = getattr(record, name)
        if ref_value != got_value:
            violations.append(
                Violation(
                    invariant=name,
                    cell=record.cell.describe(),
                    reference=reference.cell.describe(),
                    detail=_diff(name, ref_value, got_value),
                    error_type=(record.error or reference.error or (None,))[0],
                )
            )
    return violations


def _check_spec_reference(
    program, reference: RunRecord, vm_name: str, overrides: dict
) -> list[Violation]:
    """Compare the ``none`` reference cell against the spec executor."""
    violations: list[Violation] = []
    config = config_named(vm_name, fuse=False, ic=False, **overrides)
    try:
        verify_cost_views(program, config)
        transcript = run_spec_reference(program, config)
    except SpecConformanceError as breach:
        return [
            Violation(
                invariant="spec-conformance",
                cell="spec-reference",
                reference=reference.cell.describe(),
                detail=str(breach),
            )
        ]
    except Exception:
        return [
            Violation(
                invariant="host-crash",
                cell="spec-reference",
                reference=reference.cell.describe(),
                detail=traceback.format_exc(limit=8),
                error_type="host-crash",
            )
        ]
    for name in SPEC_FIELDS:
        ref_value = getattr(reference, name)
        got_value = transcript[name]
        if ref_value != got_value:
            violations.append(
                Violation(
                    invariant=f"spec-{name}",
                    cell="spec-reference",
                    reference=reference.cell.describe(),
                    detail=_diff(name, ref_value, got_value),
                    error_type=(reference.error or (None,))[0],
                )
            )
    return violations


def check_program(
    program,
    vm_name: str = "jikes",
    extra_checks=None,
    coverage: dict | None = None,
    **overrides,
) -> list[Violation]:
    """Run ``program`` across the full matrix and return all invariant
    violations (empty list = the program is clean).

    ``coverage``, if given, receives the program's ``jit_direct_calls``,
    ``jit_unwinds`` and ``jit_poly_calls`` summed over every cell, and
    the ``fused_ids`` any cell reached.

    ``extra_checks``, if given, is called with the mapping of
    :class:`MatrixCell` → :class:`RunRecord` after each profiler group
    and must return a list of invariant-name strings to report as
    synthetic violations — the hook exists for testing the shrinker and
    triage machinery against known-bad invariants.
    """
    violations: list[Violation] = []
    group_references: dict[str, RunRecord] = {}

    for profiler in PROFILERS:
        records: dict[MatrixCell, RunRecord] = {}
        for cell in matrix_cells(profiler):
            records[cell] = run_cell(program, cell, vm_name, **overrides)

        if coverage is not None:
            for name in ("jit_direct_calls", "jit_unwinds", "jit_poly_calls"):
                coverage[name] = coverage.get(name, 0) + sum(
                    getattr(record, name) for record in records.values()
                )
            coverage["fused_ids"] = coverage.get("fused_ids", frozenset()).union(
                *(record.fused_ids for record in records.values())
            )
        for cell, record in records.items():
            if record.outcome == "host-crash":
                violations.append(
                    Violation(
                        invariant="host-crash",
                        cell=cell.describe(),
                        reference=cell.describe(),
                        detail=record.host_error or "host exception",
                        error_type="host-crash",
                    )
                )
            elif record.outcome == "error" and (record.steps <= 0 or record.time <= 0):
                # Absolute invariant, not a cross-config one: a guest
                # fault always follows at least one charged instruction,
                # so a zero counter means the raise site skipped the
                # loop-local → VM sync.  Cross-config comparison alone
                # cannot see this — stale counters are stale *the same
                # way* in every cell.
                violations.append(
                    Violation(
                        invariant="error-sync",
                        cell=cell.describe(),
                        reference=cell.describe(),
                        detail=(
                            f"faulting run has steps={record.steps} "
                            f"time={record.time} (raise site lost the "
                            f"loop-local counters)"
                        ),
                        error_type=record.error[0] if record.error else None,
                    )
                )
            if record.jit_unpaired:
                violations.append(
                    Violation(
                        invariant="jit-exits",
                        cell=cell.describe(),
                        reference=cell.describe(),
                        detail=(
                            f"jit entries - exits = {record.jit_unpaired} "
                            f"(every entry must leave through one counted exit)"
                        ),
                    )
                )
        if any(r.outcome == "host-crash" for r in records.values()):
            continue  # per-field comparisons are meaningless past this

        reference = records[MatrixCell(False, False, profiler, False)]
        group_references[profiler] = reference
        for cell, record in records.items():
            if cell == reference.cell:
                continue
            violations.extend(_compare(record, reference, GROUP_FIELDS))
        # Inline caches count receivers exactly under every tier above
        # them, generated code included; IC-off cells have no profile.
        ic_reference = records[MatrixCell(False, True, profiler, False)]
        for cell, record in records.items():
            if cell.ic and cell != ic_reference.cell:
                violations.extend(_compare(record, ic_reference, ("receivers",)))

        if profiler == "none":
            # Spec-conformance invariant: an independent executor built
            # from nothing but the declarative opcode specs must
            # reproduce the unprofiled reference cell bit-for-bit, and
            # every executed op's stack delta / every charged cost must
            # match its spec row (asserted inside the executor / the
            # cost-view check).  This is what catches a dispatch arm and
            # its spec drifting apart *together* — identical in every
            # cell, wrong against the table.
            violations.extend(
                _check_spec_reference(program, reference, vm_name, overrides)
            )

        telemetry_cells = [c for c in records if c.telemetry]
        if len(telemetry_cells) >= 2:
            base = records[telemetry_cells[0]]
            for other_cell in telemetry_cells[1:]:
                other = records[other_cell]
                if base.event_lines != other.event_lines:
                    violations.append(
                        Violation(
                            invariant="events",
                            cell=other.cell.describe(),
                            reference=base.cell.describe(),
                            detail=_first_line_diff(
                                base.event_lines, other.event_lines
                            ),
                        )
                    )
                if base.metrics != other.metrics:
                    violations.append(
                        Violation(
                            invariant="metrics",
                            cell=other.cell.describe(),
                            reference=base.cell.describe(),
                            detail=_diff("metrics", base.metrics, other.metrics),
                        )
                    )

        if extra_checks is not None:
            for invariant in extra_checks(records):
                violations.append(
                    Violation(
                        invariant=invariant,
                        cell=f"synthetic+{profiler}",
                        reference=reference.cell.describe(),
                        detail="synthetic invariant injected via extra_checks",
                    )
                )

    baseline = group_references.get("none")
    if baseline is not None:
        for profiler, reference in group_references.items():
            if profiler == "none":
                continue
            violations.extend(_compare(reference, baseline, CROSS_FIELDS))
    return violations


def _first_line_diff(base_lines, other_lines) -> str:
    base_lines = base_lines or []
    other_lines = other_lines or []
    if len(base_lines) != len(other_lines):
        return f"event count: reference={len(base_lines)} got={len(other_lines)}"
    for index, (a, b) in enumerate(zip(base_lines, other_lines)):
        if a != b:
            return f"event line {index}: reference={a!r} got={b!r}"
    return "event streams differ"
