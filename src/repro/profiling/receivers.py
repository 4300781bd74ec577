"""Exact receiver-type profiles from the inline caches.

The polymorphic inline caches (:mod:`repro.vm.ic`) count every virtual
dispatch per (call site, receiver class) as a by-product of caching —
the shared cells survive recompilation because they are keyed by
*baseline* coordinates through the inline map.  A
:class:`ReceiverProfile` snapshots those cells into an immutable,
serializable profile that is **exact**: the counts sum to the number of
virtual calls the run executed, with none of the sampling error the
paper's CBS technique trades for low overhead.

Three consumers:

* the new Jikes inliner's >40% guarded-inlining rule
  (:mod:`repro.inlining.new_inliner`) can draw a call site's receiver
  distribution from here instead of (or in addition to) a sampled DCG,
* the figure-5 harness compares CBS-sampled site distributions against
  these exact ones (per-hot-site overlap),
* the fleet protocol publishes receiver counts alongside DCG deltas so
  aggregated profiles keep distribution shape.

Sites are keyed by baseline ``(function_index, pc)``; receiver classes
by class index.  Callee-level views resolve receivers through the
program's flat dispatch tables, so they agree byte-for-byte with what
the interpreter actually called.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.profiling.dcg import DCG

#: (function_index, pc) of a baseline virtual call site.
Site = tuple  # tuple[int, int]


class ReceiverProfile:
    """Per-call-site receiver-class counts, exact by construction."""

    __slots__ = ("sites",)

    def __init__(self, sites: dict | None = None):
        #: {(caller_index, pc): {class_index: count}}
        self.sites: dict = sites if sites is not None else {}

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

    def copy(self) -> "ReceiverProfile":
        return ReceiverProfile(
            {site: dict(counts) for site, counts in self.sites.items()}
        )

    def merge(self, other: "ReceiverProfile", scale: float = 1.0) -> None:
        """Accumulate another profile's counts (fleet aggregation)."""
        for site, counts in other.sites.items():
            mine = self.sites.setdefault(site, {})
            for rclass, count in counts.items():
                mine[rclass] = mine.get(rclass, 0) + count * scale

    # -- basic queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.sites)

    def site_counts(self, caller: int, pc: int) -> dict:
        """{class_index: count} at one site (empty if never executed)."""
        return self.sites.get((caller, pc), {})

    def total_calls(self) -> float:
        """Every virtual call the profile observed (exactness check:
        equals the VM's virtual-call count when snapshotted at exit)."""
        return sum(sum(counts.values()) for counts in self.sites.values())

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

    def edge_weight_fraction(
        self, program, caller: int, pc: int, callee: int
    ) -> float:
        """This edge's share of every observed virtual call — the exact
        analogue of ``DCG.weight_fraction`` for the inliner's linear
        size threshold."""
        total = self.total_calls()
        if total == 0:
            return 0.0
        distribution = self.callee_distribution(program, caller, pc)
        return distribution.get(callee, 0) / total

    def to_dcg(self, program) -> DCG:
        """The profile as a DCG (virtual edges only), for the shared
        accuracy metrics."""
        dcg = DCG()
        for caller, pc in self.sites:
            for callee, count in self.callee_distribution(
                program, caller, pc
            ).items():
                dcg.record(caller, pc, callee, count)
        return dcg

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

    # -- serialization (fleet wire format) -----------------------------------------

    def to_rows(self) -> list:
        """Flatten to ``[[caller, pc, class_index, count], ...]`` rows,
        deterministically ordered — the fleet ``receivers`` field."""
        rows = []
        for site in sorted(self.sites):
            caller, pc = site
            counts = self.sites[site]
            for rclass in sorted(counts):
                rows.append([caller, pc, rclass, counts[rclass]])
        return rows

    @classmethod
    def from_rows(cls, rows) -> "ReceiverProfile":
        profile = cls()
        for caller, pc, rclass, count in rows:
            site = (int(caller), int(pc))
            counts = profile.sites.setdefault(site, {})
            counts[rclass] = counts.get(rclass, 0) + count
        return profile

    def describe(self, program=None, limit: int = 5) -> str:
        lines = [
            f"ReceiverProfile({len(self.sites)} sites, "
            f"{self.total_calls():.0f} calls)"
        ]
        for site, total in self.hot_sites(limit):
            caller, pc = site
            name = (
                program.functions[caller].qualified_name
                if program is not None
                else str(caller)
            )
            counts = self.sites[site]
            shape = ", ".join(
                f"{rclass}:{count}" for rclass, count in sorted(counts.items())
            )
            lines.append(f"  {name}@{pc}: {total:.0f} calls [{shape}]")
        return "\n".join(lines)
