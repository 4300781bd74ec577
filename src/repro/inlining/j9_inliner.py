"""The J9-style inliner (paper §5.2).

J9's static heuristics are much more aggressive than Jikes RVM's; its
dynamic heuristics *modulate* them using the profiled call graph:

* **cold call site** → the static heuristics are overridden and
  inlining is not performed (this is what reduces total inlining and
  compile time by ~9%),
* **hot call site** → the static size thresholds are increased,
* the profile weight required for inlining is a linear function of the
  callee's size — bigger methods need hotter sites.

With an *inaccurate* profile the cold test misfires: genuinely hot
sites that the profiler never sampled get their inlining suppressed,
which is why timer-only profiles degrade J9's performance on most
benchmarks (Figure 5, right).
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.opt.inline import DEVIRTUALIZE, DIRECT, GUARDED
from repro.inlining.policy import InlinerPolicy, SiteDecision
from repro.profiling.dcg import DCG


class J9Inliner(InlinerPolicy):
    """Aggressive static heuristics modulated by dynamic cold/hot tests."""

    name = "j9"

    def __init__(
        self,
        program,
        static_size_threshold: int = 70,
        hot_size_threshold: int = 90,
        always_inline_size: int = 10,
        cold_fraction: float = 0.0005,
        hot_fraction: float = 0.01,
        required_fraction_per_byte: float = 0.00002,
        guarded_fraction: float = 0.40,
        use_dynamic: bool = True,
        cha=None,
        budget=None,
    ):
        super().__init__(program, cha, budget)
        self.static_size_threshold = static_size_threshold
        self.hot_size_threshold = hot_size_threshold
        self.always_inline_size = always_inline_size
        self.cold_fraction = cold_fraction
        self.hot_fraction = hot_fraction
        self.required_fraction_per_byte = required_fraction_per_byte
        self.guarded_fraction = guarded_fraction
        self.use_dynamic = use_dynamic

    # -- dynamic modulation -------------------------------------------------------

    def _site_fraction(self, caller_index, pc, dcg: DCG | None) -> float | None:
        """Total profiled weight fraction of a site; None without profile."""
        if dcg is None or dcg.total_weight == 0:
            return None
        distribution = dcg.callsite_distribution(caller_index, pc)
        return sum(distribution.values()) / dcg.total_weight

    def _dynamic_allows(
        self, caller_index, pc, callee_index, dcg: DCG | None
    ) -> tuple[bool, int]:
        """(allowed?, size threshold) after dynamic modulation."""
        size = self.callee_size(callee_index)
        if not self.use_dynamic or dcg is None or dcg.total_weight == 0:
            return True, self.static_size_threshold
        if size <= self.always_inline_size:
            return True, self.static_size_threshold
        fraction = self._site_fraction(caller_index, pc, dcg) or 0.0
        if fraction < self.cold_fraction:
            return False, 0  # cold: static heuristics overridden
        # Hotness required grows linearly with callee size.
        required = self.required_fraction_per_byte * size
        if fraction < required:
            return False, 0
        if fraction >= self.hot_fraction:
            return True, self.hot_size_threshold
        return True, self.static_size_threshold

    # -- policy --------------------------------------------------------------------

    def decide_site(self, caller_index, pc, instr, dcg: DCG | None, depth):
        static_target = self.static_callee(instr)

        if static_target is not None:
            allowed, threshold = self._dynamic_allows(
                caller_index, pc, static_target, dcg
            )
            if allowed and self.callee_size(static_target) <= threshold:
                return SiteDecision(DIRECT, static_target)
            if instr.op is Op.CALL_VIRTUAL:
                return SiteDecision(DEVIRTUALIZE, static_target)
            return None

        if instr.op is not Op.CALL_VIRTUAL:
            return None
        if dcg is None or dcg.total_weight == 0 or not self.use_dynamic:
            # Aggressive static speculation: with no profile, J9 still
            # guard-inlines moderately polymorphic sites on a CHA-chosen
            # target (the shallowest implementation).  This is the
            # inlining volume the dynamic cold test later trims back.
            targets = self.cha.possible_targets(instr.a)
            if 2 <= len(targets) <= 4:
                eligible = [
                    t for t in sorted(targets)
                    if self.callee_size(t) <= self.static_size_threshold
                ]
                if eligible:
                    chosen = max(eligible, key=self.callee_size)
                    return SiteDecision(GUARDED, chosen)
            return None
        distribution = dcg.callsite_distribution(caller_index, pc)
        site_weight = sum(distribution.values())
        if site_weight == 0:
            return None
        dominant = max(distribution, key=distribution.get)
        if distribution[dominant] / site_weight <= self.guarded_fraction:
            return None
        allowed, threshold = self._dynamic_allows(caller_index, pc, dominant, dcg)
        if allowed and self.callee_size(dominant) <= threshold:
            return SiteDecision(GUARDED, dominant)
        return None
