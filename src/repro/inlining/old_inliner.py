"""The *old* Jikes RVM profile-directed inliner (paper §5.1).

Designed to compensate for inaccurate profiles by being conservative:

* Profile data is used only to classify an edge as **hot** — carrying
  more than 1% of the total DCG weight.
* A hot edge raises the size threshold at its call site; everything
  else falls back to the static rules.
* Profile data for non-hot edges is *completely ignored* — in
  particular a non-hot virtual call site observed to reach only a
  single small target is never guarded-inlined.  This is the missed
  opportunity that motivated the new inliner.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.opt.inline import DEVIRTUALIZE, DIRECT, GUARDED
from repro.inlining.policy import InlinerPolicy, SiteDecision
from repro.profiling.dcg import DCG


class OldJikesInliner(InlinerPolicy):
    """Hot-edge-or-nothing profile consumption."""

    name = "old-jikes"

    def __init__(
        self,
        program,
        hot_edge_percent: float = 1.0,
        static_size_threshold: int = 14,
        hot_size_threshold: int = 70,
        cha=None,
        budget=None,
    ):
        super().__init__(program, cha, budget)
        self.hot_edge_percent = hot_edge_percent
        self.static_size_threshold = static_size_threshold
        self.hot_size_threshold = hot_size_threshold

    def _is_hot(self, caller_index, pc, callee_index, dcg: DCG | None) -> bool:
        if dcg is None or dcg.total_weight == 0:
            return False
        fraction = dcg.weight_fraction((caller_index, pc, callee_index))
        return fraction * 100.0 > self.hot_edge_percent

    def decide_site(self, caller_index, pc, instr, dcg: DCG | None, depth):
        static_target = self.static_callee(instr)

        if static_target is not None:
            threshold = self.static_size_threshold
            if self._is_hot(caller_index, pc, static_target, dcg):
                threshold = self.hot_size_threshold
            if self.callee_size(static_target) <= threshold:
                return SiteDecision(DIRECT, static_target)
            if instr.op is Op.CALL_VIRTUAL:
                return SiteDecision(DEVIRTUALIZE, static_target)
            return None

        # Truly polymorphic virtual site: only a hot edge can justify a
        # guarded inline; non-hot profile data is ignored by design.
        if instr.op is Op.CALL_VIRTUAL and dcg is not None:
            distribution = dcg.callsite_distribution(caller_index, pc)
            for callee_index in sorted(
                distribution, key=distribution.get, reverse=True
            ):
                if not self._is_hot(caller_index, pc, callee_index, dcg):
                    continue
                if self.callee_size(callee_index) <= self.hot_size_threshold:
                    return SiteDecision(GUARDED, callee_index)
        return None
