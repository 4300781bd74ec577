"""Superinstruction fusion and inline caches seen through the CLI: the
saved CBS profile and program output of jess-tiny are byte-identical
with either tier, or both, turned off.

The library-level identity suites (tests/vm/test_fusion_identity.py,
tests/vm/test_ic_identity.py) compare VM state; this reads the files a
user keeps, the way ``run --save-profile`` writes them.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from repro.benchsuite.suite import get_benchmark
from repro.cli import main


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """``run`` jess-tiny under CBS seed 7 with extra flags; returns its
    stdout and the bytes of the profile it saved."""
    root = tmp_path_factory.mktemp("fusion-ic")
    source = root / "jess.mini"
    source.write_text(get_benchmark("jess").source("tiny"))

    def run_with(*flags):
        profile = root / ("-".join(flags) or "fused")
        argv = ["run", str(source), *flags, "--profile", "cbs", "--seed", "7",
                "--save-profile", str(profile)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        return out.getvalue(), profile.read_bytes()

    return run_with


@pytest.fixture(scope="module")
def fused(run):
    """The default run: fusion and inline caches on."""
    return run()


@pytest.mark.parametrize(
    "flags",
    [("--no-fuse",), ("--no-ic",), ("--no-fuse", "--no-ic")],
    ids=["plain", "noic", "bare"],
)
def test_saved_profile_and_output_match_the_fused_run(run, fused, flags):
    out, profile = run(*flags)
    assert profile == fused[1]
    assert out == fused[0]
