"""The fuzzing campaign engine behind ``repro-mini fuzz``.

A campaign is a seed range fanned out over
:func:`repro.harness.parallel.pmap`: each worker generates the program
for its seed (Mini source on even seeds, hand-assembled bytecode on odd
seeds), runs the full differential matrix, and reports violations as
plain picklable dicts.  The parent buckets violating seeds by triage
key and shrinks one representative per bucket to a minimal reproducer.

``replay_corpus`` re-checks the committed reproducers under
``tests/fuzz/corpus/`` — the permanent regression suite every past
violation leaves behind.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.bytecode.assembler import assemble
from repro.frontend.codegen import compile_source
from repro.fuzz.differential import MatrixCell, check_program, run_cell
from repro.fuzz.genasm import generate_asm
from repro.fuzz.genprog import generate_mini
from repro.fuzz.shrink import shrink_lines
from repro.fuzz.triage import invariant_key, triage_key
from repro.harness.parallel import pmap
from repro.telemetry.ring import FlightRecorder

#: Matrix overrides every campaign run uses: a small timer interval so
#: even short programs cross several tick boundaries (stressing the
#: de-quicken and leaf-template bailout paths), and a step budget that
#: turns runaway subjects into StepLimitExceeded transcripts.
CAMPAIGN_OVERRIDES = {"timer_interval": 1900, "max_steps": 400_000}

#: File extensions and comment leaders for the two program kinds.
EXTENSIONS = {"mini": ".mini", "asm": ".asm"}
COMMENT = {"mini": "//", "asm": "#"}


@dataclass(frozen=True)
class FuzzSpec:
    """Picklable description of one fuzzing job (one seed)."""

    seed: int
    kind: str  # "mini" | "asm"
    vm_name: str = "jikes"


def build_program(kind: str, text: str):
    """Compile (Mini) or assemble (bytecode) a subject's text."""
    if kind == "mini":
        return compile_source(text, filename="<fuzz>")
    if kind == "asm":
        return assemble(text)
    raise ValueError(f"unknown program kind {kind!r}")


def generate(spec: FuzzSpec) -> str:
    return generate_mini(spec.seed) if spec.kind == "mini" else generate_asm(spec.seed)


def fuzz_one(spec: FuzzSpec) -> dict:
    """Worker entry point: generate, run the matrix, report.

    Returns a plain dict (pmap workers must produce picklable values):
    ``{"seed", "kind", "status", "violations", "triage", "source"}``
    where status is ``"ok"`` or ``"violations"``, plus the subject's
    ``jit_direct_calls``/``jit_unwinds``/``jit_poly_calls`` over the
    matrix.  A generator or frontend bug (the subject fails to build)
    is reported as a violation too — the generators promise valid
    programs.
    """
    text = generate(spec)
    try:
        program = build_program(spec.kind, text)
    except Exception as error:
        return {
            "seed": spec.seed,
            "kind": spec.kind,
            "status": "violations",
            "violations": [
                {
                    "invariant": "generator",
                    "cell": "build",
                    "reference": "build",
                    "detail": f"{type(error).__name__}: {error}",
                    "error_type": type(error).__name__,
                }
            ],
            "triage": f"generator|{type(error).__name__}",
            "invariants": f"generator|{type(error).__name__}",
            "source": text,
        }
    coverage: dict = {}
    violations = check_program(
        program, spec.vm_name, coverage=coverage, **CAMPAIGN_OVERRIDES
    )
    if not violations:
        return {"seed": spec.seed, "kind": spec.kind, "status": "ok", **coverage}
    return {
        **coverage,
        "seed": spec.seed,
        "kind": spec.kind,
        "status": "violations",
        "violations": [v.as_dict() for v in violations],
        "triage": triage_key(violations, program),
        "invariants": invariant_key(violations),
        "source": text,
    }


def spec_for_seed(seed: int, vm_name: str = "jikes") -> FuzzSpec:
    """Even seeds fuzz the frontend path, odd seeds the assembler path."""
    return FuzzSpec(seed=seed, kind="mini" if seed % 2 == 0 else "asm", vm_name=vm_name)


@dataclass
class CampaignResult:
    """Everything ``repro-mini fuzz`` reports."""

    checked: int = 0
    ok: int = 0
    #: triage key → list of result dicts (all violating seeds).
    buckets: dict = field(default_factory=dict)
    #: triage key → shrunk reproducer info for the bucket representative.
    reproducers: dict = field(default_factory=dict)
    #: Seeds whose subject made a direct (body-to-body) call in some
    #: cell, seeds where a directly entered activation handed back, and
    #: seeds where a polymorphic tail completed a call.
    direct_call_seeds: int = 0
    unwind_seeds: int = 0
    poly_tail_seeds: int = 0

    @property
    def violations(self) -> int:
        return sum(len(results) for results in self.buckets.values())


def make_predicate(kind: str, vm_name: str, target_invariants: str, extra_checks=None):
    """The shrinker predicate: does this candidate still break the same
    invariants with the same error types?  (Opcode signature is *not*
    preserved — a minimal reproducer may drop opcodes the violation
    never needed.)  Anything that fails to build or runs clean is a
    ``False`` — the shrinker only keeps candidates that reproduce."""

    def predicate(lines) -> bool:
        text = "\n".join(lines)
        try:
            program = build_program(kind, text)
            violations = check_program(
                program, vm_name, extra_checks=extra_checks, **CAMPAIGN_OVERRIDES
            )
        except Exception:
            return False
        if not violations:
            return False
        return invariant_key(violations) == target_invariants

    return predicate


def shrink_result(result: dict, extra_checks=None) -> dict | None:
    """Shrink one violating campaign result to a minimal reproducer.
    Returns ``{"kind", "triage", "source", "lines"}`` or None when the
    violation does not reproduce in-process (flaky host crash)."""
    lines = result["source"].splitlines()
    target = result.get("invariants") or result["triage"].rsplit("|", 1)[0]
    predicate = make_predicate(
        result["kind"], result.get("vm_name", "jikes"), target, extra_checks
    )
    if not predicate(lines):
        return None
    shrunk = shrink_lines(lines, predicate)
    return {
        "kind": result["kind"],
        "triage": result["triage"],
        "source": "\n".join(shrunk) + "\n",
        "lines": len(shrunk),
    }


def run_campaign(
    seeds: int,
    jobs: int = 1,
    start: int = 0,
    vm_name: str = "jikes",
    shrink: bool = True,
    progress=None,
) -> CampaignResult:
    """Run ``seeds`` differential jobs (seed values ``start .. start +
    seeds - 1``) across ``jobs`` workers and triage the fallout."""
    specs = [spec_for_seed(start + i, vm_name) for i in range(seeds)]
    result = CampaignResult()
    for report in pmap(fuzz_one, specs, jobs=jobs):
        result.checked += 1
        result.direct_call_seeds += report.get("jit_direct_calls", 0) > 0
        result.unwind_seeds += report.get("jit_unwinds", 0) > 0
        result.poly_tail_seeds += report.get("jit_poly_calls", 0) > 0
        if report["status"] == "ok":
            result.ok += 1
        else:
            result.buckets.setdefault(report["triage"], []).append(report)
        if progress is not None:
            progress(result)
    if shrink:
        for key, reports in result.buckets.items():
            representative = min(reports, key=lambda r: len(r["source"]))
            shrunk = shrink_result(representative)
            if shrunk is not None:
                result.reproducers[key] = shrunk
    return result


def record_flight(
    kind: str, source: str, triage: str, vm_name: str = "jikes"
) -> FlightRecorder:
    """Re-run a reproducer's fully-featured cell with a flight recorder
    attached and return the recorder, primed with the triage context.

    This is the post-mortem view of the violation: the heartbeats and
    the fault transcript from the moments before the reproducer died,
    ready to dump as the ``.flight.jsonl`` artifact beside it.
    """
    recorder = FlightRecorder()
    recorder.record("triage", key=triage, program_kind=kind, vm=vm_name)
    try:
        program = build_program(kind, source)
    except Exception as error:
        recorder.record(
            "build-error", error=type(error).__name__, message=str(error)
        )
        return recorder
    cell = MatrixCell(True, True, "cbs", True, flight=True)
    record = run_cell(
        program, cell, vm_name, flight_recorder=recorder, **CAMPAIGN_OVERRIDES
    )
    if record.outcome == "host-crash":
        recorder.record("host-crash", traceback=record.host_error)
    return recorder


def save_reproducers(
    result: CampaignResult, directory: str, vm_name: str = "jikes"
) -> list[str]:
    """Write each bucket's shrunk reproducer under ``directory`` with a
    commented triage header, plus a ``.flight.jsonl`` post-mortem from
    re-running it with the flight recorder on; returns the reproducer
    paths (artifacts ride along unreturned)."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, (key, repro) in enumerate(sorted(result.reproducers.items())):
        name = f"repro_{index:03d}{EXTENSIONS[repro['kind']]}"
        path = os.path.join(directory, name)
        leader = COMMENT[repro["kind"]]
        with open(path, "w") as handle:
            handle.write(f"{leader} kind: {repro['kind']}\n")
            handle.write(f"{leader} triage: {key}\n")
            handle.write(repro["source"])
        recorder = record_flight(repro["kind"], repro["source"], key, vm_name)
        recorder.dump(os.path.join(directory, f"repro_{index:03d}.flight.jsonl"))
        paths.append(path)
    return paths


def replay_corpus(directory: str, vm_name: str = "jikes") -> list[tuple[str, list]]:
    """Re-run every committed reproducer; returns ``(path, violations)``
    pairs.  A healthy tree returns an empty violation list for every
    file — each entry documents a bug that is now fixed."""
    results = []
    for name in sorted(os.listdir(directory)):
        extension = os.path.splitext(name)[1]
        kinds = {v: k for k, v in EXTENSIONS.items()}
        if extension not in kinds:
            continue
        path = os.path.join(directory, name)
        with open(path) as handle:
            text = handle.read()
        program = build_program(kinds[extension], text)
        violations = check_program(program, vm_name, **CAMPAIGN_OVERRIDES)
        results.append((path, violations))
    return results
