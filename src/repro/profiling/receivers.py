"""Exact receiver-type profiles from the inline caches.

The polymorphic inline caches (:mod:`repro.vm.ic`) count every virtual
dispatch per (call site, receiver class) as a by-product of caching —
the shared cells survive recompilation because they are keyed by
*baseline* coordinates through the inline map.  A
:class:`ReceiverProfile` snapshots those cells into a profile that is
**exact**: the counts sum to the number of
virtual calls the run executed, with none of the sampling error the
paper's CBS technique trades for low overhead.

One consumer: the figure-5 harness compares CBS-sampled site
distributions against these exact ones (per-hot-site overlap).  The
inliner reads the sampled DCG only, as in the paper.

Sites are keyed by baseline ``(function_index, pc)``; receiver classes
by class index.  Callee-level views resolve receivers through the
program's flat dispatch tables, so they agree byte-for-byte with what
the interpreter actually called.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.profiling.dcg import DCG


class ReceiverProfile:
    """Per-call-site receiver-class counts, exact by construction."""

    __slots__ = ("sites",)

    def __init__(self, sites: dict):
        #: {(caller_index, pc): {class_index: count}}
        self.sites = sites

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_cache(cls, cache) -> "ReceiverProfile":
        """Snapshot a :class:`repro.vm.runtime.CodeCache`'s receiver
        cells (counts are copied; the live caches keep counting)."""
        sites = {
            site: {rclass: cell[0] for rclass, cell in cells.items() if cell[0]}
            for site, cells in cache.receiver_cells.items()
        }
        return cls({site: counts for site, counts in sites.items() if counts})

    # -- basic queries -------------------------------------------------------------

    def site_counts(self, caller: int, pc: int) -> dict:
        """{class_index: count} at one site (empty if never executed)."""
        return self.sites.get((caller, pc), {})

    def hot_sites(self, count: int = 10) -> list:
        """The ``count`` highest-volume sites as ``(site, total)``."""
        totals = [
            (site, sum(counts.values())) for site, counts in self.sites.items()
        ]
        totals.sort(key=lambda item: (-item[1], item[0]))
        return totals[:count]

    # -- callee-level views (resolved through the flat dispatch tables) -----------

    def callee_distribution(self, program, caller: int, pc: int) -> dict:
        """{callee_function_index: count} at one site.

        Receiver classes map to targets through the same flat
        selector-indexed tables the megamorphic IC path dispatches
        with, so this is exactly the call distribution the VM executed.
        """
        counts = self.sites.get((caller, pc))
        if not counts:
            return {}
        instr = program.functions[caller].code[pc]
        if instr.op is not Op.CALL_VIRTUAL:
            return {}
        selector = instr.a
        tables = program.flat_dispatch_tables()
        distribution: dict = {}
        for rclass, count in counts.items():
            row = tables[rclass]
            callee = row[selector] if selector < len(row) else -1
            if callee >= 0:
                distribution[callee] = distribution.get(callee, 0) + count
        return distribution

    # -- accuracy against sampled profiles ----------------------------------------

    def site_overlap(self, program, dcg: DCG, caller: int, pc: int) -> float:
        """Percent overlap between a sampled DCG's distribution at this
        site and the exact one (100 = identical shape).

        The paper's overlap metric restricted to one call site: sum of
        ``min(p_sampled, p_exact)`` over callees, in percent.  A site
        the sampler never hit scores 0.
        """
        exact = self.callee_distribution(program, caller, pc)
        exact_total = sum(exact.values())
        sampled = dcg.callsite_distribution(caller, pc)
        sampled_total = sum(sampled.values())
        if exact_total == 0 or sampled_total == 0:
            return 0.0
        shared = 0.0
        for callee, count in exact.items():
            p_exact = count / exact_total
            p_sampled = sampled.get(callee, 0.0) / sampled_total
            shared += min(p_exact, p_sampled)
        return 100.0 * shared
