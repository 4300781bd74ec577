"""Host counters: the one table of fusion, IC and JIT metrics.

How the host ran the guest — superinstructions, inline caches, the
template JIT — one row per metric.  The
interpreter zeroes and reads the rows, the tracer registers them, and
``repro-mini report`` (text and ``--json``) and ``run --stats`` render
every row of each tier that ran.  Counter rows are recorded as per-run
deltas, gauge rows as the value at run end.  Attribute names are part
of the VM's contract (generated dispatch and JIT code write them by
name).  Nothing here imports the VM, so ``report`` stays light.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

COUNTER = "counter"
GAUGE = "gauge"

#: Where a row's value is read: an ``Interpreter`` or a ``CodeCache``
#: attribute.
VM = "vm"
CACHE = "cache"


class HostCounter(NamedTuple):
    name: str
    tier: str
    suffix: str
    kind: str
    source: str
    attr: str
    help: str


def _row(kind, name, source, help, attr=""):
    """A row whose attribute is, unless given, the name with "." -> "_"."""
    tier, _, suffix = name.partition(".")
    attr = attr or name.replace(".", "_")
    return HostCounter(name, tier, suffix, kind, source, attr, help)


_counter = partial(_row, COUNTER)
_gauge = partial(_row, GAUGE)


HOST_COUNTERS = (
    # Superinstructions (repro.vm.fuse); sites sum every method built.
    _gauge("fusion.sites", CACHE, "superinstruction sites in the methods the code cache built",
           attr="fused_sites"),
    _counter("fusion.dispatches", VM, "superinstruction dispatches executed",
             attr="fused_dispatches"),
    _counter("fusion.deopts", VM, "fused groups re-executed step-wise at a tick boundary"),
    # Inline caches (repro.vm.ic).  Hits are the receiver cells' calls
    # less misses; transitions are slot binds beyond a site's first.
    _counter("ic.hits", VM, "virtual calls dispatched through an inline-cache binding"),
    _counter("ic.misses", VM, "inline-cache slow-path dispatches (including quickening)"),
    _counter("ic.transitions", VM, "inline-cache state growths (mono→poly→megamorphic)"),
    _gauge("ic.sites", CACHE, "virtual call sites quickened with an inline cache"),
    _gauge("ic.megamorphic_sites", CACHE, "inline-cache sites that overflowed to megamorphic",
           attr="megamorphic_sites"),
    _gauge("ic.static_sites", CACHE, "static call sites quickened with an inline cache"),
    # Template JIT (repro.vm.jit).  Every entry pairs with one exit:
    # entries + osr_entries == deopts + guard/call/return exits.
    _counter("jit.compiles", VM, "methods compiled to generated Python (opt level 3)"),
    _counter("jit.entries", VM, "method entries that ran the compiled body"),
    _counter("jit.osr_entries", VM, "loop backedges that re-entered a compiled body"),
    _counter("jit.deopts", VM, "de-optimizations at tick/step boundaries"),
    _counter("jit.guard_exits", VM, "IC guard misses and fault-precondition exits"),
    _counter("jit.call_exits", VM, "exits at call sites the template cannot inline"),
    _counter("jit.return_exits", VM, "exits at returns (interpreter pops the frame)"),
    _counter("jit.leaf_calls", VM, "leaf-template calls inlined inside compiled bodies"),
    _counter("jit.direct_calls", VM,
             "calls from one compiled body into another, returned in generated code"),
    _counter("jit.unwinds", VM, "directly entered activations handed back to the interpreter"),
    _counter("jit.poly_calls", VM,
             "overflow/megamorphic calls completed by a site's polymorphic tail"),
    _gauge("jit.methods_compiled", CACHE, "methods running a compiled body at run end"),
    _gauge("jit.methods_eligible", CACHE,
           "methods compiled or still counting on the promotion trampoline"),
    # Host wall time: the one row that never repeats from run to run.
    _counter("jit.compile_s", VM, "host wall seconds spent in the template compiler"),
)

TIERS = tuple(dict.fromkeys(row.tier for row in HOST_COUNTERS))

#: Tiers that change how the host runs the guest, never what it
#: computes, so their metrics may differ between otherwise bit-identical
#: configurations.
HOST_TIERS = ("fusion", "ic", "jit")

#: ``Interpreter`` attributes zeroed at construction (``ic_hits`` is a
#: property).
VM_ATTRS = tuple(r.attr for r in HOST_COUNTERS if r.source == VM and r.attr != "ic_hits")


def read(vm) -> dict:
    """Every row's current value on ``vm``, by metric name."""
    return {
        row.name: getattr(vm if row.source == VM else vm.code_cache, row.attr)
        for row in HOST_COUNTERS
    }


def per_run(before: dict, vm) -> dict:
    """What one run adds: counter rows as deltas from ``before`` (a
    :func:`read` taken at run start), gauge rows as read now."""
    now = read(vm)
    for row in HOST_COUNTERS:
        if row.kind == COUNTER:
            now[row.name] -= before.get(row.name, 0)
    return now


def tier_rows(tier: str) -> list[HostCounter]:
    return [row for row in HOST_COUNTERS if row.tier == tier]


def shown(row: HostCounter, value):
    """``value`` as reports show it: seconds to four places, counts as is."""
    return f"{value:.4f}" if row.suffix.endswith("_s") else value
