"""Import boundaries: what each entry point loads in a fresh process.

The fleet service and client never run the VM, and the CLI's argument
parser needs none of the subsystems its commands use.  Package
``__init__``s resolve their exports on first use (``repro._lazy``), so
importing any of these entry points must stay clear of the layers
below.  A process that runs a guest program without saving, loading,
publishing or warm-starting a profile never hashes it, so it must not
map OpenSSL either (``hashlib`` loads ``_hashlib``).  Each check runs in
a new interpreter: the test process itself has long since imported
everything.
"""

import json
import os
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


def test_plain_cli_run_does_not_load_openssl(tmp_path):
    source = tmp_path / "hello.mini"
    source.write_text("def main() { print(6 * 7); }\n")
    done = fresh(["-X", "importtime", "-m", "repro.cli", "run", str(source)])
    assert done.stdout == "42\n"
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.vm.interpreter" in imported
    assert loaded_under(imported, OPENSSL) == []


def test_fingerprint_is_pinned():
    from repro.benchsuite.suite import program_for

    assert program_for("jess", "tiny").fingerprint() == JESS_TINY_FINGERPRINT
