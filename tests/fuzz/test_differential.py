"""The differential checker itself: clean programs produce no
violations, injected divergence is detected, and host crashes are
violations by definition."""

from __future__ import annotations

from repro.bytecode.assembler import assemble
from repro.frontend.codegen import compile_source
from repro.fuzz.campaign import CAMPAIGN_OVERRIDES, fuzz_one, spec_for_seed
from repro.fuzz.differential import (
    PROFILERS,
    MatrixCell,
    check_program,
    matrix_cells,
    run_cell,
)
from tests.helpers import receiver_mix_source

CLEAN = """
def main() {
  var total = 0;
  for (var i = 0; i < 200; i = i + 1) { total = (total + i * 7) % 9973; }
  print(total);
}
"""

FAULTING = """
func main/0 locals=1 void
  PUSH 5
  PRINT
  PUSH 9
  PUSH 0
  DIV
  PRINT
  RETURN
end
"""


def test_matrix_shape():
    cells = matrix_cells("none")
    assert len(cells) == 14
    assert sum(1 for c in cells if c.telemetry) == 4
    assert {
        (c.fuse, c.ic)
        for c in cells
        if not c.telemetry and not c.paths and not c.jit
    } == {
        (False, False), (False, True), (True, False), (True, True),
    }
    flight_cells = [c for c in cells if c.flight]
    assert len(flight_cells) == 1
    assert flight_cells[0].telemetry  # flight rides the fully-featured cell
    assert flight_cells[0].describe().endswith("+telemetry+flight")
    # Path cells: every group carries an exhaustive rider; the "none"
    # group adds the cheaper modes for the exhaustive==mincov and
    # CBS-subset cross-checks, plus a paths+JIT cell.
    assert [c.paths for c in cells if c.paths] == [
        "exhaustive", "mincov", "cbs", "cbs",
    ]
    assert all(c.fuse and c.ic for c in cells if c.paths)
    paths_cell = next(c for c in cells if c.paths == "mincov")
    assert paths_cell.describe().endswith("paths-mincov")
    # JIT cells ride the fully-featured corner: silent, with telemetry,
    # and (in this group) with a CBS path tracker, all promoting at
    # first entry; one more, silent, at the product threshold.
    jit_cells = [c for c in cells if c.jit]
    assert len(jit_cells) == 4
    assert all(c.fuse and c.ic for c in jit_cells)
    assert sum(1 for c in jit_cells if c.telemetry) == 1
    assert sum(1 for c in jit_cells if c.paths == "cbs") == 1
    assert jit_cells[0].describe().endswith("+jit")
    lazy = [c for c in jit_cells if c.lazy_jit]
    assert len(lazy) == 1 and lazy[0].describe().endswith("+jit-lazy")
    # The sampler-plus-charging-observer group is reduced: the square,
    # the telemetry corner, one first-entry JIT cell.
    reduced = matrix_cells("cbs+instr")
    assert [c.describe() for c in reduced[4:]] == [
        "fuse+ic+cbs+instr+telemetry", "fuse+ic+cbs+instr+jit",
    ]
    assert len(reduced) == 6
    assert sum(len(matrix_cells(group)) for group in PROFILERS) == 53


CALLS = """
class Counter {
  var n: int;
  def bump(): int { this.n = this.n + 1; return this.n; }
}
def main() {
  var c = new Counter();
  var t = 0;
  for (var i = 0; i < 400; i = i + 1) { t = c.bump(); }
  print(t);
}
"""


def test_instrumented_group_records_both_dcgs():
    """``cbs+instr`` carries the sampler's DCG and the charging
    observer's, so the group comparison covers both."""
    program = compile_source(CALLS)
    record = run_cell(
        program, MatrixCell(True, True, "cbs+instr", False), **CAMPAIGN_OVERRIDES
    )
    sampled, exhaustive = record.dcg
    assert sum(exhaustive.values()) == record.calls == 400
    assert sampled and set(sampled) <= set(exhaustive)
    assert check_program(program, **CAMPAIGN_OVERRIDES) == []


def test_clean_program_has_no_violations():
    program = compile_source(CLEAN)
    assert check_program(program, **CAMPAIGN_OVERRIDES) == []


def test_faulting_program_is_still_clean_when_synced():
    """A guest fault is a legal transcript — the checker compares it,
    it does not flag it."""
    program = assemble(FAULTING)
    assert check_program(program, **CAMPAIGN_OVERRIDES) == []


def test_run_cell_records_guest_error():
    program = assemble(FAULTING)
    record = run_cell(program, MatrixCell(True, True, "none", False))
    assert record.outcome == "error"
    assert record.error[0] == "DivisionByZeroError"
    assert record.output == [5]
    assert record.steps > 0 and record.time > 0


def test_injected_divergence_is_detected():
    """extra_checks is the synthetic-violation hook: whatever invariant
    names it returns surface as violations for every profiler group."""
    program = compile_source(CLEAN)
    violations = check_program(
        program,
        extra_checks=lambda records: ["synthetic-drift"],
        **CAMPAIGN_OVERRIDES,
    )
    assert violations
    assert {v.invariant for v in violations} == {"synthetic-drift"}
    # One injection per profiler group.
    assert len(violations) == len(PROFILERS)


POLYMORPHIC = receiver_mix_source(5, 900)


def test_receiver_profile_is_recorded_where_inline_caches_run():
    program = compile_source(POLYMORPHIC)
    plain = run_cell(program, MatrixCell(False, True, "none", False), **CAMPAIGN_OVERRIDES)
    jit = run_cell(
        program, MatrixCell(True, True, "none", False, jit=True), **CAMPAIGN_OVERRIDES
    )
    no_ic = run_cell(program, MatrixCell(True, False, "none", False), **CAMPAIGN_OVERRIDES)
    assert no_ic.receivers is None
    assert [row[2:] for row in plain.receivers] == [(k, 180) for k in range(5)]
    assert jit.receivers == plain.receivers
    assert jit.jit_poly_calls > 0 == plain.jit_poly_calls
    coverage: dict = {}
    assert check_program(program, coverage=coverage, **CAMPAIGN_OVERRIDES) == []
    assert coverage["jit_poly_calls"] > 0


def test_receivers_invariant_catches_a_tail_that_forgets_to_count(monkeypatch):
    """The DCG, output and clock are all untouched by a generated call
    that skips its receiver cell; only the profile comparison sees it."""
    from repro.vm.jit import compiler as jit_compiler

    emit = jit_compiler._Compiler.w
    monkeypatch.setattr(
        jit_compiler._Compiler, "w",
        lambda self, line: None if line == "_cell[0] += 1" else emit(self, line),
    )
    violations = check_program(compile_source(POLYMORPHIC), **CAMPAIGN_OVERRIDES)
    assert violations
    assert {v.invariant for v in violations} == {"receivers"}
    assert all("+jit" in v.cell and "no-fuse+ic" in v.reference for v in violations)


def test_host_crash_is_a_violation():
    """Anything that is not a VMError escaping the interpreter is a
    bug, whatever the cell — simulated by a poisoned fused view whose
    superinstruction immediate divides by zero at the host level."""

    class Boom(Exception):
        pass

    # Instead of racing the real interpreter, hand check_program a
    # program object whose attribute access explodes inside run_cell.
    class PoisonProgram:
        def __getattr__(self, name):
            raise Boom(f"poisoned attribute {name}")

    violations = check_program(PoisonProgram(), **CAMPAIGN_OVERRIDES)
    assert violations
    assert all(v.invariant == "host-crash" for v in violations)
    assert any("Boom" in v.detail for v in violations)


def test_fuzz_one_reports_clean_and_violating():
    clean = fuzz_one(spec_for_seed(0))
    assert clean["status"] in ("ok", "violations")
    # The live tree is healthy: sweep a few seeds and expect all clean.
    for seed in range(8):
        report = fuzz_one(spec_for_seed(seed))
        assert report["status"] == "ok", report.get("violations")
