"""The dynamic call graph (DCG).

Per the paper (§2): a call graph is a multigraph whose nodes are methods
and whose edges are ``(caller, call site, callee)`` triples; a *dynamic*
call graph associates observed frequencies with those edges.  Here
methods are function indices into a :class:`~repro.bytecode.program.
Program` and call sites are bytecode pcs in the caller.
"""

from __future__ import annotations

from collections import Counter

#: An edge: (caller function index, callsite pc, callee function index).
Edge = tuple[int, int, int]


class DCG:
    """A weighted dynamic call graph."""

    def __init__(self) -> None:
        self._edges: dict[Edge, float] = {}
        self._total: float = 0.0

    # -- recording -------------------------------------------------------------

    def record(self, caller: int, callsite_pc: int, callee: int, weight: float = 1.0) -> None:
        """Add ``weight`` samples to one call edge."""
        edge = (caller, callsite_pc, callee)
        self._edges[edge] = self._edges.get(edge, 0.0) + weight
        self._total += weight

    def record_edge(self, edge: Edge, weight: float = 1.0) -> None:
        self._edges[edge] = self._edges.get(edge, 0.0) + weight
        self._total += weight

    def merge(self, other: "DCG") -> None:
        """Fold another DCG's samples into this one."""
        for edge, weight in other._edges.items():
            self.record_edge(edge, weight)

    # -- queries ------------------------------------------------------------------

    @property
    def total_weight(self) -> float:
        return self._total

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._edges

    def edges(self) -> dict[Edge, float]:
        """The raw edge→weight mapping (do not mutate)."""
        return self._edges

    def edge_weight(self, edge: Edge) -> float:
        return self._edges.get(edge, 0.0)

    def weight_fraction(self, edge: Edge) -> float:
        """Edge weight as a fraction (0..1) of total graph weight."""
        if self._total == 0:
            return 0.0
        return self._edges.get(edge, 0.0) / self._total

    def normalized(self) -> dict[Edge, float]:
        """All edges with weights as fractions of the total."""
        if self._total == 0:
            return {}
        total = self._total
        return {edge: weight / total for edge, weight in self._edges.items()}

    def callsite_distribution(self, caller: int, callsite_pc: int) -> dict[int, float]:
        """callee → weight for every observed target of one call site."""
        result: dict[int, float] = {}
        for (edge_caller, pc, callee), weight in self._edges.items():
            if edge_caller == caller and pc == callsite_pc:
                result[callee] = result.get(callee, 0.0) + weight
        return result

    def callee_weights(self) -> Counter:
        """Total incoming weight per callee (method hotness)."""
        counter: Counter = Counter()
        for (_, _, callee), weight in self._edges.items():
            counter[callee] += weight
        return counter

    def top_edges(self, count: int) -> list[tuple[Edge, float]]:
        """The ``count`` heaviest edges, heaviest first."""
        ranked = sorted(self._edges.items(), key=lambda item: -item[1])
        return ranked[:count]

    def copy(self) -> "DCG":
        clone = DCG()
        clone._edges = dict(self._edges)
        clone._total = self._total
        return clone

    def clear(self) -> None:
        self._edges.clear()
        self._total = 0.0

    # -- decay (continuous profiling support) ---------------------------------------

    def decay(self, factor: float) -> None:
        """Exponentially decay all edge weights (old-profile aging).

        Jikes RVM's adaptive system periodically decays its DCG so the
        profile tracks phase changes; exposed here for the adaptive mode.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        for edge in self._edges:
            self._edges[edge] *= factor
        self._total *= factor

    def describe(self, program=None, limit: int = 10) -> str:
        """Human-readable dump of the heaviest edges (for debugging)."""
        lines = [f"DCG: {len(self)} edges, total weight {self._total:.0f}"]
        for (caller, pc, callee), weight in self.top_edges(limit):
            if program is not None:
                caller_name = program.functions[caller].qualified_name
                callee_name = program.functions[callee].qualified_name
            else:
                caller_name, callee_name = str(caller), str(callee)
            fraction = 100.0 * weight / self._total if self._total else 0.0
            lines.append(
                f"  {caller_name} @pc={pc} -> {callee_name}: "
                f"{weight:.0f} ({fraction:.1f}%)"
            )
        return "\n".join(lines)


class CountedDCG(DCG):
    """A DCG whose recorder may bump :meth:`edges` in place.

    The total weight is not kept beside the edges but summed from them
    on every read, so a hot-path recorder pays one dict update per
    sample and nothing else.  For whole-number weights the sum is exact
    and equals what :meth:`DCG.record` would have accumulated.
    """

    @property
    def _total(self) -> float:
        return sum(self._edges.values())

    @_total.setter
    def _total(self, value: float) -> None:
        pass  # always derived from the edges
