"""Import boundaries: what each entry point loads in a fresh process.

The fleet service and client never run the VM, and the CLI's argument
parser needs none of the subsystems its commands use.  Package
``__init__``s resolve their exports on first use (``repro._lazy``), so
importing any of these entry points must stay clear of the layers
below.  No VM-side process maps OpenSSL (``hashlib`` loads
``_hashlib``, ``ssl`` loads ``_ssl``): a plain run never hashes its
program, and one that saves, loads, publishes or warm-starts a profile
hashes it with CPython's built-in SHA-256.  Only the fleet service
loads ``_ssl``, through asyncio, which is expected and not checked
here.  Each check runs in a new interpreter: the test process itself
has long since imported everything.
"""

import hashlib
import json
import os
import socket
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Layers a process that never runs a guest program must not load.
VM_SIDE = (
    "repro.vm",
    "repro.lang",
    "repro.frontend",
    "repro.bytecode",
    "repro.adaptive",
    "repro.profiling.cbs",
)

#: OpenSSL's bindings: ``hashlib`` loads the first, ``ssl`` the second.
OPENSSL = ("_hashlib", "_ssl")

#: CPython's own SHA-256 (3.12+, 3.10–3.11), which fingerprints use.
BUILTIN_SHA256 = {"_sha2", "_sha256"}

#: sha256 of ``program_for("jess", "tiny")``.  Saved profiles and fleet
#: aggregates are keyed by it: a change here orphans every one of them.
JESS_TINY_FINGERPRINT = (
    "8471d18df87f0342d58578327b0d8a89f1eee59c03d77186526fde026a505578"
)


def fresh(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


def modules_after(statement: str) -> set[str]:
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(fresh(["-c", code]).stdout))


def loaded_under(modules: set[str], prefixes) -> list[str]:
    return sorted(
        name
        for name in modules
        for prefix in prefixes
        if name == prefix or name.startswith(prefix + ".")
    )


def test_import_repro_loads_only_the_package_and_its_helper():
    modules = modules_after("import repro")
    assert loaded_under(modules, ["repro"]) == ["repro", "repro._lazy"]


@pytest.mark.parametrize("entry", ["repro.fleet.service", "repro.fleet.client"])
def test_fleet_entry_points_do_not_load_the_vm(entry):
    modules = modules_after(f"import {entry}")
    assert entry in modules
    assert loaded_under(modules, VM_SIDE) == []
    if entry == "repro.fleet.client":
        # run --publish: the publisher is a thread, not an event loop.
        assert "asyncio" not in modules


def test_cli_loads_no_command_layers_until_a_command_runs():
    modules = modules_after("import repro.cli")
    assert "repro.profiling.cbs" in modules  # build_parser's SKIP_POLICIES
    forbidden = (
        "repro.fleet",
        "repro.harness",
        "repro.fuzz",
        "repro.adaptive",
        "repro.vm.interpreter",
    )
    assert loaded_under(modules, forbidden) == []


@pytest.mark.parametrize("entry", ["repro.vm.interpreter", "repro.frontend.codegen"])
def test_vm_layers_do_not_load_openssl(entry):
    modules = modules_after(f"import {entry}")
    assert entry in modules
    assert loaded_under(modules, OPENSSL) == []


def cli_run_imports(args: list[str]) -> tuple[str, set[str]]:
    """Stdout of ``repro.cli run ARGS`` and every module it imported."""
    done = fresh(["-X", "importtime", "-m", "repro.cli", "run", *args])
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.vm.interpreter" in imported
    return done.stdout, imported


def test_plain_cli_run_does_not_load_openssl(tmp_path):
    source = tmp_path / "hello.mini"
    source.write_text("def main() { print(6 * 7); }\n")
    stdout, imported = cli_run_imports([str(source)])
    assert stdout == "42\n"
    assert loaded_under(imported, OPENSSL) == []


COUNTER = """
class Counter {
  var n: int;
  def bump(): int { this.n = this.n + 1; return this.n; }
}
def main() {
  var c = new Counter();
  var t = 0;
  for (var i = 0; i < 20000; i = i + 1) { t = c.bump(); }
  print(t);
}
"""


@pytest.fixture
def dead_address():
    """A local port bound but not listening: connections are refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield "127.0.0.1:%d" % sock.getsockname()[1]


@pytest.mark.parametrize(
    "args",
    [
        ["--profile", "cbs", "--save-profile", "{profile}"],
        ["--load-profile", "{saved}", "--strict"],
        ["--profile", "cbs", "--publish", "{dead}", "--publish-every", "5"],
        ["--adaptive", "--profile", "cbs", "--publish", "{dead}", "--warm-start"],
    ],
    ids=["save-profile", "load-profile-strict", "publish", "warm-start"],
)
def test_profile_cli_runs_do_not_load_openssl(args, tmp_path, dead_address):
    from repro.frontend.codegen import compile_source
    from repro.profiling.dcg import DCG
    from repro.profiling.serialize import save_profile

    source = tmp_path / "counter.mini"
    source.write_text(COUNTER)
    saved = str(tmp_path / "saved.json")
    save_profile(DCG(), compile_source(COUNTER), saved)
    fields = dict(profile=str(tmp_path / "out.json"), saved=saved, dead=dead_address)
    stdout, imported = cli_run_imports([str(source)] + [a.format(**fields) for a in args])
    assert stdout == "20000\n"
    assert BUILTIN_SHA256 & imported  # the program was hashed
    assert loaded_under(imported, OPENSSL) == []


def test_library_profile_cycle_does_not_load_openssl(tmp_path):
    path = str(tmp_path / "jess.json")
    modules = modules_after(
        f"""
from repro.benchsuite.suite import program_for
from repro.inlining.new_inliner import NewJikesInliner
from repro.opt.pipeline import optimize_function
from repro.profiling.cbs import CBSProfiler
from repro.profiling.serialize import load_profile, save_profile
from repro.vm.interpreter import Interpreter

program = program_for("jess", "tiny")
vm = Interpreter(program)
cbs = CBSProfiler(stride=3, samples_per_tick=16)
vm.attach_profiler(cbs)
vm.run()
save_profile(cbs.dcg, program, {path!r})
offline = load_profile({path!r}, program, strict=True)
policy = NewJikesInliner(program)
plans = [policy.plan_for(f.index, offline) for f in program.functions]
assert [optimize_function(program, p) for p in plans if not p.is_empty()]
"""
    )
    assert "repro.opt.pipeline" in modules
    assert BUILTIN_SHA256 & modules
    assert loaded_under(modules, OPENSSL) == []


def test_fingerprint_is_pinned():
    from repro.benchsuite.suite import program_for

    assert program_for("jess", "tiny").fingerprint() == JESS_TINY_FINGERPRINT


def hashlib_fingerprint(program) -> str:
    """The fingerprint's byte stream, hashed by ``hashlib``."""
    digest = hashlib.sha256()
    for cls in program.classes:
        digest.update(f"C {cls.name}<{cls.super_name}\n".encode())
    for function in program.functions:
        digest.update(f"F {function.qualified_name}/{function.num_params}\n".encode())
        for instr in function.code:
            digest.update(f"{instr.op.name},{instr.a},{instr.b};".encode())
        digest.update(b"\n")
    return digest.hexdigest()


def parity_programs():
    from repro.benchsuite.generator import GeneratorConfig, generate_source
    from repro.benchsuite.suite import benchmark_names, program_for
    from repro.frontend.codegen import compile_source

    for name in benchmark_names():
        for size in ("tiny", "small"):
            yield f"{name}-{size}", program_for(name, size)
    for seed in (3, 11):
        config = GeneratorConfig(num_classes=5, methods_per_class=4, seed=seed)
        yield f"generated-{seed}", compile_source(generate_source(config))


def test_fingerprint_equals_hashlib_sha256():
    programs = dict(parity_programs())
    assert len(programs) == 28
    for label, program in programs.items():
        assert program.fingerprint() == hashlib_fingerprint(program), label


def test_fingerprint_falls_back_to_hashlib(monkeypatch):
    from repro.benchsuite.suite import program_for

    # A None entry in sys.modules makes the import raise ImportError.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    program = program_for("jess", "tiny")
    monkeypatch.delattr(program, "_fingerprint", raising=False)
    assert program.fingerprint() == JESS_TINY_FINGERPRINT


def test_profile_keyed_by_a_hashlib_digest_loads_strictly(tmp_path):
    """A v3 profile saved while fingerprints came from ``hashlib`` loads
    under ``--strict`` with every warning an error."""
    from tests.profiling.test_serialize import V3_SOURCE, V3_WITH_PATHS

    source = tmp_path / "shapes.mini"
    source.write_text(V3_SOURCE)
    done = fresh(
        ["-W", "error", "-m", "repro.cli", "run", str(source),
         "--load-profile", V3_WITH_PATHS, "--strict"]
    )
    assert done.stdout == "3943\n" and done.stderr == ""
