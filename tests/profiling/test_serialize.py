"""Profile serialization tests."""

import json
import os
import random
import warnings

import pytest

from repro.benchsuite.suite import program_for
from repro.frontend.codegen import compile_source
from repro.profiling.dcg import DCG
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.serialize import (
    FORMAT_VERSION,
    ProfileFormatError,
    dcg_from_dict,
    dcg_to_dict,
    load_profile,
    save_profile,
)
from repro.vm.interpreter import Interpreter
from tests.helpers import last_digit_mutant

SOURCE = """
class A { def f(): int { return 1; } }
def helper(): int { return 2; }
def main() {
  var a = new A();
  var t = 0;
  for (var i = 0; i < 50; i = i + 1) { t = t + a.f() + helper(); }
  print(t);
}
"""


def collected():
    program = compile_source(SOURCE)
    vm = Interpreter(program)
    profiler = ExhaustiveProfiler()
    profiler.install(vm)
    vm.run()
    return program, profiler.dcg


def test_roundtrip_preserves_edges():
    program, dcg = collected()
    data = dcg_to_dict(dcg, program)
    restored = dcg_from_dict(data, program)
    assert restored.edges() == dcg.edges()
    assert restored.total_weight == dcg.total_weight


def test_serialized_form_uses_names():
    program, dcg = collected()
    data = dcg_to_dict(dcg, program)
    assert data["version"] == FORMAT_VERSION
    names = {edge["callee"] for edge in data["edges"]}
    assert "A.f" in names and "helper" in names


def test_file_roundtrip(tmp_path):
    program, dcg = collected()
    path = str(tmp_path / "profile.json")
    save_profile(dcg, program, path)
    restored = load_profile(path, program)
    assert restored.edges() == dcg.edges()
    # The file is genuine JSON.
    with open(path) as handle:
        assert json.load(handle)["version"] == FORMAT_VERSION


def test_profile_resolves_across_recompilation():
    # A semantically identical but separately compiled program resolves
    # the same names.
    program1, dcg = collected()
    program2 = compile_source(SOURCE)
    data = dcg_to_dict(dcg, program1)
    restored = dcg_from_dict(data, program2)
    assert restored.total_weight == dcg.total_weight


def test_unknown_function_skipped_by_default():
    program, dcg = collected()
    data = dcg_to_dict(dcg, program)
    data["edges"].append(
        {"caller": "Ghost.f", "pc": 0, "callee": "helper", "weight": 1.0}
    )
    restored = dcg_from_dict(data, program)
    assert restored.total_weight == dcg.total_weight


def test_unknown_function_rejected_in_strict_mode():
    program, dcg = collected()
    data = dcg_to_dict(dcg, program)
    data["edges"].append(
        {"caller": "Ghost.f", "pc": 0, "callee": "helper", "weight": 1.0}
    )
    with pytest.raises(ProfileFormatError, match="Ghost.f"):
        dcg_from_dict(data, program, strict=True)


def test_bad_version_rejected():
    program, _ = collected()
    with pytest.raises(ProfileFormatError, match="version"):
        dcg_from_dict({"version": 99, "edges": []}, program)


def test_malformed_edge_rejected():
    program, _ = collected()
    with pytest.raises(ProfileFormatError, match="malformed"):
        dcg_from_dict(
            {"version": 1, "edges": [{"caller": "main"}]}, program
        )


@pytest.mark.parametrize(
    "data, strict, message",
    [
        ({"version": 3, "edges": 5}, False, "'edges' is not a list"),
        ({"version": 3, "fingerprint": 5, "edges": []}, True, "'fingerprint' is not a string"),
        ({"version": 3, "fingerprint": [1], "edges": []}, False, "'fingerprint' is not a string"),
        (
            {"version": 1, "edges": [{"caller": ["main"], "pc": 0, "callee": "helper",
                                      "weight": 1.0}]},
            False,
            "malformed",
        ),
        # json.loads reads 1e999 as inf, which int() cannot take.
        (
            {"version": 3, "edges": [{"caller": "main", "pc": float("inf"),
                                      "callee": "helper", "weight": 1.0}]},
            False,
            "malformed",
        ),
    ],
    ids=["edges-not-a-list", "fingerprint-not-a-string-strict", "fingerprint-not-a-string",
         "caller-not-a-string", "pc-infinite"],
)
def test_malformed_profile_shapes_rejected(data, strict, message):
    """Shapes that used to escape as ``TypeError`` from ``run
    --load-profile`` and ``--warm-start`` (which catch only
    ``ProfileFormatError``)."""
    program, _ = collected()
    with pytest.raises(ProfileFormatError, match=message):
        dcg_from_dict(data, program, strict=strict)


def test_load_profile_rejects_edges_that_are_not_a_list(tmp_path):
    from repro.cli import main

    source = tmp_path / "prog.mini"
    source.write_text(SOURCE)
    profile = tmp_path / "bad.json"
    profile.write_text('{"version": 3, "edges": 5}')
    with pytest.raises(SystemExit, match="'edges' is not a list"):
        main(["run", str(source), "--load-profile", str(profile)])


def test_negative_weight_rejected():
    program, _ = collected()
    data = {
        "version": 1,
        "edges": [
            {"caller": "main", "pc": 0, "callee": "helper", "weight": -1.0}
        ],
    }
    with pytest.raises(ProfileFormatError, match="negative"):
        dcg_from_dict(data, program)


def test_missing_file_reported():
    program, _ = collected()
    with pytest.raises(ProfileFormatError, match="cannot load"):
        load_profile("/nonexistent/profile.json", program)


def test_empty_dcg_roundtrip(tmp_path):
    program, _ = collected()
    path = str(tmp_path / "empty.json")
    save_profile(DCG(), program, path)
    assert load_profile(path, program).total_weight == 0


def test_nonfinite_weights_rejected():
    program, _ = collected()
    for bad in (float("nan"), float("inf"), float("-inf")):
        data = {
            "version": 1,
            "edges": [
                {"caller": "main", "pc": 0, "callee": "helper", "weight": bad}
            ],
        }
        with pytest.raises(ProfileFormatError, match="finite"):
            dcg_from_dict(data, program)


def test_serialized_profile_carries_fingerprint():
    program, dcg = collected()
    data = dcg_to_dict(dcg, program)
    assert data["fingerprint"] == program.fingerprint()


def test_v1_profile_without_fingerprint_loads():
    program, dcg = collected()
    data = dcg_to_dict(dcg, program)
    del data["fingerprint"]
    data["version"] = 1
    restored = dcg_from_dict(data, program, strict=True)
    assert restored.edges() == dcg.edges()


def test_fingerprint_mismatch_warns_lenient():
    from repro.profiling.serialize import ProfileMismatchWarning

    program, dcg = collected()
    other = compile_source(SOURCE.replace("i < 50", "i < 60"))
    data = dcg_to_dict(dcg, program)
    with pytest.warns(ProfileMismatchWarning):
        restored = dcg_from_dict(data, other)
    assert restored.total_weight == dcg.total_weight


def test_fingerprint_mismatch_raises_strict():
    program, dcg = collected()
    other = compile_source(SOURCE.replace("i < 50", "i < 60"))
    data = dcg_to_dict(dcg, program)
    with pytest.raises(ProfileFormatError, match="fingerprint"):
        dcg_from_dict(data, other, strict=True)


def test_strict_mismatch_names_both_digests_in_full():
    program, dcg = collected()
    data = dcg_to_dict(dcg, program)
    data["fingerprint"] = last_digit_mutant(program.fingerprint())
    with pytest.raises(ProfileFormatError) as excinfo:
        dcg_from_dict(data, program, strict=True)
    assert f"({data['fingerprint']} vs {program.fingerprint()})" in str(excinfo.value)


def test_save_profile_is_atomic(tmp_path):
    program, dcg = collected()
    path = str(tmp_path / "profile.json")
    save_profile(dcg, program, path)
    save_profile(dcg, program, path)  # overwrite is fine
    leftovers = [n for n in os.listdir(tmp_path) if n != "profile.json"]
    assert leftovers == []


def test_save_profile_unwritable_path_raises_oserror(tmp_path):
    program, dcg = collected()
    with pytest.raises(OSError):
        save_profile(dcg, program, str(tmp_path / "missing" / "profile.json"))
    assert list(tmp_path.iterdir()) == []  # no partial or temp files


def test_offline_pgo_end_to_end(tmp_path):
    """Collect a profile, save it, and use it to optimize a fresh VM."""
    from repro.inlining.new_inliner import NewJikesInliner
    from repro.opt.pipeline import optimize_function

    program, dcg = collected()
    path = str(tmp_path / "profile.json")
    save_profile(dcg, program, path)

    fresh_program = compile_source(SOURCE)
    offline = load_profile(path, fresh_program)
    policy = NewJikesInliner(fresh_program)
    vm = Interpreter(fresh_program)
    for function in fresh_program.functions:
        plan = policy.plan_for(function.index, offline)
        if not plan.is_empty():
            vm.code_cache.install(optimize_function(fresh_program, plan).function, 2)
    vm.run()

    baseline = Interpreter(fresh_program)
    baseline.run()
    assert vm.output == baseline.output
    assert vm.time < baseline.time  # offline PGO paid off


#: A v3 profile saved with Ball-Larus ``paths`` rows before path
#: profiling was removed, for the program in :data:`V3_SOURCE`.
V3_WITH_PATHS = os.path.join(os.path.dirname(__file__), "data", "v3_with_paths.json")
V3_SOURCE = """
class Shape {
  def area(x: int): int { return x; }
}
class Square extends Shape {
  def area(x: int): int { if (x % 3 == 0) { return x * x; } return x + 1; }
}
def pick(i: int): Shape {
  if (i % 2 == 0) { return new Square(); }
  return new Shape();
}
def main() {
  var t = 0;
  for (var i = 0; i < 40; i = i + 1) { t = t + pick(i).area(i); }
  print(t);
}
"""


def test_v3_path_rows_are_ignored_on_load(tmp_path):
    program = compile_source(V3_SOURCE)
    with open(V3_WITH_PATHS) as handle:
        data = json.load(handle)
    assert data["version"] == 3 and data["paths"]
    assert data["fingerprint"] == program.fingerprint()
    del data["paths"]
    without = tmp_path / "without.json"
    without.write_text(json.dumps(data))
    loaded = load_profile(V3_WITH_PATHS, program, strict=True)
    assert loaded.edges() == load_profile(str(without), program, strict=True).edges()
    assert loaded.total_weight == 80.0


def test_load_profile_rejects_deep_nesting(tmp_path):
    program, _ = collected()
    path = tmp_path / "deep.json"
    path.write_text('{"version": 3, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ProfileFormatError, match="cannot load"):
        load_profile(str(path), program)


def test_byte_mutants_load_or_raise_format_error(tmp_path):
    """Every seeded corruption of a saved profile (invalid UTF-8 most of
    all) either loads or raises ProfileFormatError, lenient and strict."""
    program = program_for("jess", "tiny")
    vm = Interpreter(program)
    profiler = ExhaustiveProfiler()
    profiler.install(vm)
    vm.run()
    saved = tmp_path / "jess.json"
    save_profile(profiler.dcg, program, str(saved))
    original = saved.read_bytes()
    mutant = tmp_path / "mutant.json"
    undecodable = 0
    for seed in range(300):
        rng = random.Random(seed)
        data = bytearray(original)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        mutant.write_bytes(bytes(data))
        for strict in (False, True):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    load_profile(str(mutant), program, strict=strict)
            except ProfileFormatError as error:
                undecodable += "codec can't decode" in str(error)
    assert undecodable > 0  # the corpus does reach the UTF-8 decoder
