"""VM configurations: the two "host VMs" of the reproduction.

The paper implemented counter-based sampling in Jikes RVM and J9 to show
the technique survives substrate differences.  We mirror that with two
interpreter configurations that differ in cost model, yieldpoint
placement, and entry-check implementation:

* ``jikes`` — tri-state yieldpoint flag checked at prologues, epilogues,
  and loop backedges (paper §5.1); overloaded flag, so no per-entry cost
  when profiling is idle.
* ``j9`` — overloaded method-*entry* check only (paper §5.2): no
  epilogue or backedge yieldpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.vm.costmodel import CostModel, j9_cost_model, jikes_cost_model


@dataclass(frozen=True)
class VMConfig:
    """Static configuration of one interpreter instance."""

    name: str
    cost_model: CostModel

    #: Virtual-time units between timer interrupts (≈10 ms real time).
    timer_interval: int = 100_000

    #: Which yieldpoints exist in generated code.
    prologue_yieldpoints: bool = True
    epilogue_yieldpoints: bool = True
    backedge_yieldpoints: bool = True

    #: ``True``: the profiling flag is folded into an existing runtime
    #: check (zero cost when idle).  ``False``: a dedicated 3-instruction
    #: check is charged on every method entry (paper §4).
    overloaded_entry_check: bool = True

    #: Guest stack depth limit.
    max_frames: int = 4096

    #: Interpreter instruction budget (guards against runaway programs).
    max_steps: int = 4_000_000_000

    #: Superinstruction fusion (quickened dispatch; see repro.vm.fuse).
    #: Purely host-level: a fused run is bit-identical to an unfused one
    #: in virtual time, ticks, yieldpoints, steps, and profiles.
    fuse: bool = True

    #: Per-call-site polymorphic inline caches (see repro.vm.ic).  Also
    #: purely host-level — IC-on and IC-off runs are bit-identical — and
    #: the source of the exact receiver-type profile.
    ic: bool = True

    #: Opt-level-3 template JIT (see repro.vm.jit): hot methods run as
    #: generated Python with de-optimization back to the interpreter.
    #: Host-level like fusion and ICs — JIT-on and JIT-off runs are
    #: bit-identical in output, virtual time, steps, ticks, and
    #: profiles.  Off by default.
    jit: bool = False

    def replace(self, **kwargs) -> "VMConfig":
        return replace(self, **kwargs)


def jikes_config(**overrides) -> VMConfig:
    """The Jikes-RVM-like configuration."""
    return VMConfig(
        name="jikes",
        cost_model=jikes_cost_model(),
        prologue_yieldpoints=True,
        epilogue_yieldpoints=True,
        backedge_yieldpoints=True,
    ).replace(**overrides)


def j9_config(**overrides) -> VMConfig:
    """The J9-like configuration: method-entry checks only."""
    return VMConfig(
        name="j9",
        cost_model=j9_cost_model(),
        timer_interval=110_000,
        prologue_yieldpoints=True,
        epilogue_yieldpoints=False,
        backedge_yieldpoints=False,
    ).replace(**overrides)


def config_named(name: str, **overrides) -> VMConfig:
    """Look up a configuration by name (``jikes`` or ``j9``)."""
    if name == "jikes":
        return jikes_config(**overrides)
    if name == "j9":
        return j9_config(**overrides)
    raise ValueError(f"unknown VM configuration {name!r}")
