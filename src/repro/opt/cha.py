"""Class hierarchy analysis (CHA) over a compiled program.

Computes, for every dispatch selector, the set of concrete target
methods any receiver could resolve to.  A selector with exactly one
possible target can be devirtualized without a guard; that is the basis
of the static ("trivial") inlining performed at low optimization levels,
before any profile exists.
"""

from __future__ import annotations

from repro.bytecode.program import Program


class ClassHierarchyAnalysis:
    """Selector → possible target functions, derived from vtables."""

    def __init__(self, program: Program):
        self._program = program
        self._targets: dict[int, set[int]] = {}
        for cls in program.classes:
            for selector_id, function_index in cls.vtable.items():
                self._targets.setdefault(selector_id, set()).add(function_index)

    def possible_targets(self, selector_id: int) -> frozenset[int]:
        """All functions a CALL_VIRTUAL on ``selector_id`` could reach."""
        return frozenset(self._targets.get(selector_id, frozenset()))

    def monomorphic_target(self, selector_id: int) -> int | None:
        """The single possible target, or ``None`` if 0 or >1 exist."""
        targets = self._targets.get(selector_id)
        if targets is not None and len(targets) == 1:
            return next(iter(targets))
        return None

    def is_monomorphic(self, selector_id: int) -> bool:
        return self.monomorphic_target(selector_id) is not None
