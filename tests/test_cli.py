"""CLI tests (repro-mini)."""

import re

import pytest

from repro.cli import main
from tests.helpers import receiver_mix_source

PROGRAM = """
class Counter {
  var n: int;
  def bump(): int { this.n = this.n + 1; return this.n; }
}
def main() {
  var c = new Counter();
  var t = 0;
  for (var i = 0; i < 40000; i = i + 1) { t = c.bump(); }
  print(t);
}
"""

BROKEN = "def main() { print(undeclared); }"

CRASHING = "def main() { print(1 / 0); }"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.mini"
    path.write_text(PROGRAM)
    return str(path)


def test_run_prints_output(program_file, capsys):
    assert main(["run", program_file]) == 0
    assert capsys.readouterr().out.strip() == "40000"


def test_run_with_stats(program_file, capsys):
    assert main(["run", program_file, "--stats"]) == 0
    err = capsys.readouterr().err
    assert "steps=" in err and "vtime=" in err


def test_run_with_cbs_profile_and_dcg(program_file, capsys):
    assert main(
        ["run", program_file, "--profile", "cbs", "--dcg", "--stride", "5"]
    ) == 0
    captured = capsys.readouterr()
    assert "Counter.bump" in captured.err
    assert "accuracy vs exhaustive" in captured.err


def test_run_dcg_without_profile_shows_exhaustive(program_file, capsys):
    assert main(["run", program_file, "--dcg"]) == 0
    assert "exhaustive dynamic call graph" in capsys.readouterr().err


def test_run_timer_profile(program_file, capsys):
    assert main(["run", program_file, "--profile", "timer", "--dcg"]) == 0


def test_run_on_j9(program_file, capsys):
    assert main(["run", program_file, "--vm", "j9"]) == 0
    assert capsys.readouterr().out.strip() == "40000"


def _run_line(err):
    return next(line for line in err.splitlines() if line.startswith("-- steps="))


@pytest.mark.parametrize("profile", ["cbs", "timer"])
def test_run_adaptive(program_file, profile, capsys):
    """Adaptive runs reach the template JIT, and stay bit-identical to
    ``--no-jit``."""
    argv = ["run", program_file, "--adaptive", "--profile", profile, "--stats"]
    assert main(argv) == 0
    jit = capsys.readouterr()
    assert jit.out.strip() == "40000"
    assert "compile_time=" in jit.err
    compiles = re.search(r"^-- jit: compiles=(\d+) ", jit.err, re.M)
    assert compiles and int(compiles.group(1)) > 0
    assert main(argv + ["--no-jit"]) == 0
    plain = capsys.readouterr()
    assert plain.out == jit.out
    assert _run_line(plain.err) == _run_line(jit.err)


def test_run_opt_level_1(program_file, capsys):
    assert main(["run", program_file, "--opt", "1"]) == 0
    assert capsys.readouterr().out.strip() == "40000"


def test_runtime_error_reported(tmp_path, capsys):
    path = tmp_path / "crash.mini"
    path.write_text(CRASHING)
    assert main(["run", str(path)]) == 1
    assert "runtime error" in capsys.readouterr().err


def test_compile_error_reported(tmp_path):
    path = tmp_path / "broken.mini"
    path.write_text(BROKEN)
    with pytest.raises(SystemExit, match="compile error"):
        main(["run", str(path)])


@pytest.mark.parametrize(
    "source,diagnostic",
    [
        (
            "def main(): int { return " + "(" * 100_000 + "1" + ")" * 100_000 + "; }",
            "expression nested too deeply",
        ),
        ("def main() { var x = ²; }", "1:22: unexpected character '²'"),
        # Nesting the parser admits, which the type checker (four host
        # frames per level to the parser's two) used to overflow on.
        (
            "def main() { var x = " + "1 + (" * 250 + "1" + ")" * 250 + "; print(x); }",
            "expression nested too deeply",
        ),
        (
            "def main() { var x = " + "-" * 900 + "1; print(x); }",
            "expression nested too deeply",
        ),
    ],
    ids=["deep-nesting", "non-ascii-digit", "deep-binary-past-the-parser", "deep-negation"],
)
def test_hostile_source_is_a_one_line_diagnostic_not_a_traceback(tmp_path, source, diagnostic):
    """Each used to escape as a host exception (RecursionError, ValueError)."""
    path = tmp_path / "hostile.mini"
    path.write_text(source, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["run", str(path)])
    message = str(info.value.code)
    assert message.startswith(f"compile error: {path}:1:") and "\n" not in message
    assert message.endswith(diagnostic)


def test_importing_the_cli_does_not_import_asyncio():
    """Only ``serve``/``--metrics-port`` need it; a plain run must not pay."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = "import sys, repro.cli; sys.exit('asyncio' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), timeout=60
    )
    assert done.returncode == 0


def test_http_classes_stay_reachable_from_the_telemetry_package():
    import repro.telemetry
    from repro.telemetry import httpapi

    assert repro.telemetry.ObservabilityHTTP is httpapi.ObservabilityHTTP
    assert repro.telemetry.HttpServerThread is httpapi.HttpServerThread
    with pytest.raises(AttributeError):
        repro.telemetry.no_such_name


def test_missing_file_reported():
    with pytest.raises(SystemExit, match="cannot read"):
        main(["check", "/nonexistent/x.mini"])


def test_disasm(program_file, capsys):
    assert main(["disasm", program_file]) == 0
    out = capsys.readouterr().out
    assert "method Counter.bump/1" in out
    assert "CALL_VIRTUAL bump 0" in out


def test_check(program_file, capsys):
    assert main(["check", program_file]) == 0
    assert "OK" in capsys.readouterr().out


def test_run_loops_profile(program_file, capsys):
    assert main(["run", program_file, "--profile", "loops"]) == 0
    assert "loop profile" in capsys.readouterr().err


def test_save_and_load_profile(program_file, tmp_path, capsys):
    profile_path = str(tmp_path / "p.json")
    assert main(
        ["run", program_file, "--profile", "cbs", "--save-profile", profile_path]
    ) == 0
    assert "profile saved" in capsys.readouterr().err
    # Reuse it for offline PGO: fewer calls executed (inlined).
    assert main(
        ["run", program_file, "--load-profile", profile_path, "--stats"]
    ) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "40000"


def test_save_profile_from_exhaustive_dcg(program_file, tmp_path, capsys):
    profile_path = str(tmp_path / "p.json")
    assert main(["run", program_file, "--dcg", "--save-profile", profile_path]) == 0
    import os

    assert os.path.exists(profile_path)


def test_save_profile_without_source_warns(program_file, capsys):
    assert main(["run", program_file, "--save-profile", "/tmp/ignored.json"]) == 0
    assert "nothing saved" in capsys.readouterr().err


def test_load_profile_missing_file(program_file):
    with pytest.raises(SystemExit, match="cannot load"):
        main(["run", program_file, "--load-profile", "/nonexistent.json"])


def test_load_profile_corrupt_json(program_file, tmp_path):
    profile_path = tmp_path / "corrupt.json"
    profile_path.write_text('{"version": 2, "edges": [{"trunc')
    with pytest.raises(SystemExit, match="cannot load"):
        main(["run", program_file, "--load-profile", str(profile_path)])


def test_load_profile_invalid_utf8_is_a_one_line_error(program_file, tmp_path):
    profile_path = tmp_path / "bad.json"
    profile_path.write_bytes(b'{"version": 3, "edges": [\xff]}')
    with pytest.raises(SystemExit) as excinfo:
        main(["run", program_file, "--load-profile", str(profile_path)])
    message = str(excinfo.value.code)
    assert message.startswith("cannot load profile") and "\n" not in message


def test_save_profile_unwritable_path(program_file, capsys):
    assert main(
        [
            "run", program_file, "--profile", "cbs",
            "--save-profile", "/nonexistent-dir/p.json",
        ]
    ) == 1
    assert "cannot write profile" in capsys.readouterr().err


def test_load_profile_strict_rejects_mismatch(program_file, tmp_path, capsys):
    other = tmp_path / "other.mini"
    other.write_text(PROGRAM.replace("i < 40000", "i < 40001"))
    profile_path = str(tmp_path / "p.json")
    assert main(
        ["run", str(other), "--profile", "cbs", "--save-profile", profile_path]
    ) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="fingerprint"):
        main(["run", program_file, "--load-profile", profile_path, "--strict"])
    # Lenient mode warns but still runs the program to completion.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", program_file, "--load-profile", profile_path]) == 0
    assert capsys.readouterr().out.strip() == "40000"


def test_load_profile_strict_accepts_matching(program_file, tmp_path, capsys):
    profile_path = str(tmp_path / "p.json")
    assert main(
        ["run", program_file, "--profile", "cbs", "--save-profile", profile_path]
    ) == 0
    assert main(
        ["run", program_file, "--load-profile", profile_path, "--strict"]
    ) == 0


def test_publish_dead_server_output_identical(program_file, capsys):
    assert main(["run", program_file, "--profile", "cbs", "--stats"]) == 0
    baseline = capsys.readouterr()
    assert main(
        [
            "run", program_file, "--profile", "cbs", "--stats",
            "--publish", "127.0.0.1:1", "--publish-every", "10",
        ]
    ) == 0
    published = capsys.readouterr()
    assert published.out == baseline.out
    # The vtime/steps line must be unchanged; only fleet counters differ.
    assert [
        line for line in published.err.splitlines() if line.startswith("-- steps")
    ] == [line for line in baseline.err.splitlines() if line.startswith("-- steps")]


def test_warm_start_requires_publish(program_file):
    with pytest.raises(SystemExit, match="--publish"):
        main(["run", program_file, "--adaptive", "--warm-start"])


def test_warm_start_dead_server_starts_cold(program_file, capsys):
    assert main(
        [
            "run", program_file, "--adaptive", "--profile", "cbs",
            "--publish", "127.0.0.1:1", "--warm-start",
        ]
    ) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "40000"
    assert "starting cold" in captured.err


def test_serve_rejects_bad_root(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(SystemExit, match="cannot create"):
        main(["serve", "--root", str(blocker / "sub"), "--port", "0"])


@pytest.mark.parametrize("command", ["serve"])
def test_workers_flag_is_gone(command, tmp_path, capsys):
    """One fleet topology: ``--workers`` is an argparse usage error."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--root", str(tmp_path), "--port", "0", "--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_fleet_bench_is_an_invalid_command(capsys):
    """The service is measured by the perf spine's ``fleet_mixed``
    workload alone: the old load-harness subcommand is not a choice."""
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as exit_info:
        main(["fleet-bench"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'fleet-bench'" in capsys.readouterr().err
    assert "fleet-bench" not in build_parser().format_help()


def test_cbs_knobs_reach_the_profiler():
    """--skip-policy/--seed/--context-depth are plumbed into CBSProfiler."""
    from repro.cli import _profiler_for, build_parser

    args = build_parser().parse_args(
        [
            "run", "x.mini", "--profile", "cbs", "--skip-policy", "roundrobin",
            "--seed", "42", "--context-depth", "3",
        ]
    )
    profiler = _profiler_for(args)
    assert profiler.skip_policy == "roundrobin"
    assert profiler.context_depth == 3
    assert profiler.cct is not None  # context_depth > 1 enables the CCT
    # Same seed -> same skip sequence; the CLI seed must actually be used.
    from repro.profiling.cbs import CBSProfiler

    reference = CBSProfiler(stride=3, skip_policy="roundrobin", seed=42)
    assert [profiler._initial_skip() for _ in range(8)] == [
        reference._initial_skip() for _ in range(8)
    ]


def test_cbs_seed_default_preserved():
    from repro.cli import _profiler_for, build_parser

    args = build_parser().parse_args(["run", "x.mini", "--profile", "cbs"])
    profiler = _profiler_for(args)
    from repro.profiling.cbs import CBSProfiler

    reference = CBSProfiler()
    assert [profiler._initial_skip() for _ in range(8)] == [
        reference._initial_skip() for _ in range(8)
    ]


def test_run_cbs_with_knobs_end_to_end(program_file, capsys):
    assert main(
        [
            "run", program_file, "--profile", "cbs", "--skip-policy", "roundrobin",
            "--seed", "7", "--context-depth", "2", "--dcg",
        ]
    ) == 0
    assert "accuracy vs exhaustive" in capsys.readouterr().err


def test_trace_jsonl_and_report(program_file, tmp_path, capsys):
    trace_path = str(tmp_path / "trace.jsonl")
    assert main(
        ["run", program_file, "--profile", "cbs", "--trace", trace_path]
    ) == 0
    assert "trace (jsonl" in capsys.readouterr().err
    assert main(["report", trace_path]) == 0
    out = capsys.readouterr().out
    assert "Telemetry summary" in out
    assert "windows opened" in out
    assert "samples taken" in out


def test_trace_chrome_format(program_file, tmp_path, capsys):
    import json

    trace_path = str(tmp_path / "trace.json")
    assert main(
        [
            "run", program_file, "--profile", "cbs",
            "--trace", trace_path, "--trace-format", "chrome",
        ]
    ) == 0
    document = json.loads(open(trace_path).read())
    assert document["traceEvents"]
    assert main(["report", trace_path, "--no-histograms"]) == 0
    assert "yieldpoints taken" in capsys.readouterr().out


def test_trace_with_adaptive_records_recompilations(program_file, tmp_path, capsys):
    trace_path = str(tmp_path / "trace.jsonl")
    assert main(
        [
            "run", program_file, "--profile", "cbs", "--adaptive",
            "--trace", trace_path,
        ]
    ) == 0
    assert main(["report", trace_path, "--no-histograms"]) == 0
    out = capsys.readouterr().out
    assert "recompilations" in out
    assert "inline decisions accepted" in out


def test_report_rejects_non_trace_file(tmp_path):
    bogus = tmp_path / "bogus.txt"
    bogus.write_text("hello\n")
    with pytest.raises(SystemExit, match="unrecognized trace format"):
        main(["report", str(bogus)])


# -- fusion flags -------------------------------------------------------------------


def test_no_fuse_output_identical(program_file, capsys):
    assert main(["run", program_file]) == 0
    fused = capsys.readouterr().out
    assert main(["run", program_file, "--no-fuse"]) == 0
    assert capsys.readouterr().out == fused


def test_no_fuse_stats_vtime_identical(program_file, capsys):
    assert main(["run", program_file, "--stats"]) == 0
    fused = capsys.readouterr().err
    assert main(["run", program_file, "--no-fuse", "--stats"]) == 0
    plain = capsys.readouterr().err

    def stat_line(text):
        return next(l for l in text.splitlines() if "vtime=" in l)

    assert stat_line(fused) == stat_line(plain)


def test_stats_fusion_line(program_file, capsys):
    assert main(["run", program_file, "--stats"]) == 0
    err = capsys.readouterr().err
    assert "fusion: sites=" in err and "dispatches=" in err
    assert main(["run", program_file, "--no-fuse", "--stats"]) == 0
    assert "sites=0 dispatches=0" in capsys.readouterr().err


def test_stats_jit_line_counts_polymorphic_tails_and_names_exit_sites(tmp_path, capsys):
    """A four-class site: two baked guards, two classes through the
    tail.  The ``jit:`` line says how many calls the tail completed and
    up to five ``jit exit:`` lines say where generated code still left
    the tier; together they never claim more exits than were counted."""
    import re

    path = tmp_path / "poly.mini"
    path.write_text(receiver_mix_source(4, 9000))
    assert main(["run", str(path), "--stats"]) == 0
    err = capsys.readouterr().err
    jit = next(line for line in err.splitlines() if line.startswith("-- jit: "))
    counts = {key: int(value) for key, value in re.findall(r"(\w+)=(\d+)\b(?!\.)", jit)}
    assert counts["poly_calls"] > 4000
    assert counts["guard_exits"] == 0
    sites = re.findall(r"^-- jit exit: (\S+)@(\d+) (\w+) x(\d+)$", err, re.M)
    assert 1 <= len(sites) <= 5
    assert {kind for _, _, kind, _ in sites} <= {"deopt", "guard", "call", "return"}
    taken = [int(count) for *_, count in sites]
    assert taken == sorted(taken, reverse=True)
    exits = sum(
        counts[key] for key in ("deopts", "guard_exits", "call_exits", "return_exits")
    )
    assert sum(taken) <= exits == counts["entries"] + counts["osr_entries"]
    assert main(["run", str(path), "--stats", "--no-jit"]) == 0
    assert "jit exit" not in capsys.readouterr().err


def test_disasm_fused(program_file, capsys):
    assert main(["disasm", program_file, "--fused"]) == 0
    out = capsys.readouterr().out
    assert "fused sites" in out
    assert "LOAD_PUSH" in out or "PUSH_STORE" in out
    assert "total:" in out


def test_disasm_spec(program_file, capsys):
    assert main(["disasm", program_file, "--spec"]) == 0
    out = capsys.readouterr().out
    # Every instruction line carries its spec row: effect, kind, size.
    assert "0→1]" in out  # PUSH/LOAD: pops 0, pushes 1
    assert "size=" in out
    assert "yieldpoint=" in out  # the program has calls or loops
    assert "total:" in out and "faultable" in out


def test_disasm_spec_is_exclusive(program_file, capsys):
    import pytest

    with pytest.raises(SystemExit):
        main(["disasm", program_file, "--spec", "--fused"])


# -- bench (parallel sweep) ---------------------------------------------------------


def test_bench_table_output(capsys):
    assert main(
        ["bench", "--benchmarks", "jess", "--size", "tiny", "--seeds", "1,2"]
    ) == 0
    out = capsys.readouterr().out
    assert "Profiler sweep" in out
    assert out.count("jess") == 2  # one row per seed
    assert "2 cells" in out


def test_bench_exhaustive_profiler(capsys):
    assert main(
        ["bench", "--benchmarks", "jess", "--profilers", "exhaustive", "--size", "tiny"]
    ) == 0
    out = capsys.readouterr().out
    assert "exhaustive" in out
    assert "100.00" in out
    assert "1 cells" in out


def test_bench_json_deterministic_across_jobs(capsys):
    import json as json_mod

    argv = [
        "bench",
        "--benchmarks",
        "jess,db",
        "--profilers",
        "cbs,timer",
        "--size",
        "tiny",
        "--json",
    ]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = json_mod.loads(capsys.readouterr().out)
    assert main(argv + ["--jobs", "2"]) == 0
    parallel = json_mod.loads(capsys.readouterr().out)
    assert serial["cells"] == parallel["cells"]
    # benchmark x profiler (timer takes no seed): 2 x 2 cells
    assert len(serial["cells"]) == 4


def test_bench_rejects_unknown_benchmark():
    with pytest.raises(SystemExit, match="unknown benchmark"):
        main(["bench", "--benchmarks", "nope"])


def test_bench_rejects_unknown_profiler():
    with pytest.raises(SystemExit, match="unknown profiler"):
        main(["bench", "--benchmarks", "jess", "--profilers", "gprof"])


def test_bench_rejects_non_integer_seed():
    with pytest.raises(SystemExit, match="comma-separated integers"):
        main(["bench", "--benchmarks", "jess", "--seeds", "1,x"])


def test_bench_rejects_unknown_size():
    with pytest.raises(SystemExit, match=r"unknown size: huge \(available: tiny, small, large"):
        main(["bench", "--benchmarks", "jess", "--size", "huge"])


# -- report on damaged traces -------------------------------------------------------


def test_report_truncated_trace_one_line_diagnostic(program_file, tmp_path, capsys):
    """A trace cut off mid-record (crash, full disk) gets a one-line
    diagnostic and a nonzero exit, not a JSONDecodeError traceback."""
    trace_path = str(tmp_path / "trace.jsonl")
    assert main(
        ["run", program_file, "--profile", "cbs", "--trace", trace_path]
    ) == 0
    capsys.readouterr()
    text = open(trace_path).read()
    truncated = tmp_path / "truncated.jsonl"
    cut = int(len(text) * 0.7)
    if "\n" in text[cut - 1 : cut + 1]:
        cut -= 5  # a cut on a record boundary would leave a well-formed trace
    truncated.write_text(text[:cut])
    with pytest.raises(SystemExit, match="truncated or corrupt"):
        main(["report", str(truncated)])


def test_report_corrupt_event_record(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"record": "header", "format": "repro-telemetry", "version": 1}\n'
        '{"record": "event", "ts": 5}\n'
    )
    with pytest.raises(SystemExit, match="missing 'name' field"):
        main(["report", str(bad)])


def test_report_non_object_record(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"record": "header", "format": "repro-telemetry", "version": 1}\n'
        "[1, 2, 3]\n"
    )
    with pytest.raises(SystemExit, match="not a JSON object"):
        main(["report", str(bad)])


# -- disasm --method ----------------------------------------------------------------


def test_disasm_single_method(program_file, capsys):
    assert main(["disasm", program_file, "--method", "0"]) == 0
    out = capsys.readouterr().out
    # Exactly one function block.
    assert out.count("\nend") == 1 or out.strip().endswith("end")


def test_disasm_method_out_of_range(program_file):
    with pytest.raises(SystemExit, match="method index 99 out of range"):
        main(["disasm", program_file, "--method", "99"])


def test_disasm_method_negative_out_of_range(program_file):
    with pytest.raises(SystemExit, match="out of range"):
        main(["disasm", program_file, "--method", "-1"])


def test_disasm_method_incompatible_with_views(program_file):
    with pytest.raises(SystemExit, match="plain bytecode view"):
        main(["disasm", program_file, "--fused", "--method", "0"])


# -- fuzz ---------------------------------------------------------------------------


def test_fuzz_smoke_clean(capsys):
    assert main(["fuzz", "--seeds", "6"]) == 0
    out = capsys.readouterr().out
    assert "6 programs checked" in out
    assert "BUCKET" not in out


def test_fuzz_json_output(capsys):
    import json as json_mod

    assert main(["fuzz", "--seeds", "4", "--json"]) == 0
    payload = json_mod.loads(capsys.readouterr().out)
    assert payload["checked"] == 4
    assert payload["violations"] == 0
    assert payload["buckets"] == {}


def test_fuzz_rejects_bad_seed_count():
    with pytest.raises(SystemExit, match="--seeds must be positive"):
        main(["fuzz", "--seeds", "0"])


def test_fuzz_replay_missing_directory():
    with pytest.raises(SystemExit, match="corpus directory not found"):
        main(["fuzz", "--replay", "/nonexistent/corpus"])


def test_fuzz_replay_corpus(capsys):
    import os as os_mod

    corpus = os_mod.path.join(os_mod.path.dirname(__file__), "fuzz", "corpus")
    assert main(["fuzz", "--replay", corpus]) == 0
    captured = capsys.readouterr()
    assert "FAIL" not in captured.out
    assert "reproducers clean" in captured.err


# -- numeric flag ranges ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "{F}", "--profile", "cbs", "--samples", "0"], "--samples"),
        (["run", "{F}", "--profile", "cbs", "--stride", "0"], "--stride"),
        (["run", "{F}", "--profile", "cbs", "--context-depth", "0"], "--context-depth"),
        (["run", "{F}", "--profile", "loops", "--samples", "0"], "--samples"),
        (["run", "{F}", "--profile", "loops", "--stride", "-2"], "--stride"),
        (["run", "{F}", "--profile", "timer", "--stride", "0"], "--stride"),
        (["bench", "--profilers", "cbs", "--samples", "0"], "--samples"),
        (["run", "{F}", "--publish", "127.0.0.1:9", "--publish-every", "0"], "--publish-every"),
        (["run", "{F}", "--metrics-port", "99999"], "--metrics-port"),
        (["serve", "--port", "99999"], "--port"),
        (["serve", "--http-port", "70000"], "--http-port"),
        (["serve", "--port", "-1"], "--port"),
        (["serve", "--rate", "-1"], "--rate"),
        (["serve", "--rate", "0"], "--rate"),
        (["serve", "--rate", "nan"], "--rate"),
        (["serve", "--rate", "5", "--burst", "0.5"], "--burst"),
        (["serve", "--decay", "0"], "--decay"),
        (["serve", "--decay", "1.5"], "--decay"),
        (["serve", "--max-edges", "0"], "--max-edges"),
        (["top", "127.0.0.1:1", "--interval", "-1"], "--interval"),
        (["top", "127.0.0.1:1", "--interval", "inf"], "--interval"),
    ],
)
def test_out_of_range_numeric_flags_exit_2_naming_the_flag(
    program_file, argv, flag, capsys, monkeypatch
):
    # A value the parser lets through must fail here, not start a
    # server or a polling loop.
    import repro.cli as cli

    def reached(args):
        raise AssertionError(f"{flag} was accepted")

    monkeypatch.setattr(cli, "_cmd_serve", reached)
    monkeypatch.setattr(cli, "_cmd_top", reached)
    argv = [program_file if arg == "{F}" else arg for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a " in err
    assert "Traceback" not in err
