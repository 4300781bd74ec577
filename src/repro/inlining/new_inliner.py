"""The *new* Jikes RVM profile-directed inliner (paper §5.1).

The inliner the authors built to exploit high-accuracy profiles:

* **No sharp hot/non-hot distinction.**  Edge weight feeds a linear
  function computing the size threshold for the call site — the hotter
  the site, the larger the callee it may inline — bounded by a maximum
  allowable size (inlining truly massive methods degrades performance).
* **Distribution shape matters.**  At dynamically polymorphic sites,
  only callees carrying more than 40% of the site's distribution are
  considered for guarded inlining.
* The static oversights of the old inliner are fixed: statically bound
  small callees inline regardless of profile, and CHA-monomorphic
  virtual calls are devirtualized even when too big to inline.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.opt.inline import DEVIRTUALIZE, DIRECT, GUARDED
from repro.inlining.policy import InlinerPolicy, SiteDecision
from repro.profiling.dcg import DCG


class NewJikesInliner(InlinerPolicy):
    """Linear-threshold, distribution-aware profile-directed inlining."""

    name = "new-jikes"

    def __init__(
        self,
        program,
        base_size_threshold: int = 20,
        threshold_slope: float = 3000.0,
        max_size_threshold: int = 120,
        guarded_fraction: float = 0.40,
        cha=None,
        budget=None,
    ):
        super().__init__(program, cha, budget)
        self.base_size_threshold = base_size_threshold
        self.threshold_slope = threshold_slope
        self.max_size_threshold = max_size_threshold
        self.guarded_fraction = guarded_fraction

    def size_threshold(self, edge_weight_fraction: float) -> int:
        """The paper's linear function of edge hotness, bounded above."""
        threshold = self.base_size_threshold + int(
            self.threshold_slope * edge_weight_fraction
        )
        return min(threshold, self.max_size_threshold)

    def _trace(self, caller, pc, callee, action, accepted, reason) -> None:
        if self.telemetry is not None:
            self.telemetry.on_inline_decision(caller, pc, callee, action, accepted, reason)

    def decide_site(self, caller_index, pc, instr, dcg: DCG | None, depth):
        static_target = self.static_callee(instr)

        if static_target is not None:
            fraction = (
                0.0
                if dcg is None
                else dcg.weight_fraction((caller_index, pc, static_target))
            )
            if self.callee_size(static_target) <= self.size_threshold(fraction):
                self._trace(
                    caller_index, pc, static_target, "direct", True,
                    "within-linear-threshold",
                )
                return SiteDecision(DIRECT, static_target)
            if instr.op is Op.CALL_VIRTUAL:
                self._trace(
                    caller_index, pc, static_target, "devirtualize", True,
                    "monomorphic-but-exceeds-threshold",
                )
                return SiteDecision(DEVIRTUALIZE, static_target)
            self._trace(
                caller_index, pc, static_target, "direct", False,
                "exceeds-size-threshold",
            )
            return None

        # Distribution-aware guarded inlining needs the sampled DCG.
        if instr.op is not Op.CALL_VIRTUAL or dcg is None:
            return None
        distribution = dcg.callsite_distribution(caller_index, pc)
        site_weight = sum(distribution.values())
        if site_weight == 0:
            self._trace(caller_index, pc, -1, "guarded", False, "no-site-samples")
            return None
        # Every callee carrying >40% of this site's distribution is a
        # guarded-inline candidate (at most two can qualify); they form
        # a guard chain, dominant first.
        qualified = [
            callee
            for callee, weight in sorted(
                distribution.items(), key=lambda item: -item[1]
            )
            if weight / site_weight > self.guarded_fraction
        ]
        eligible = []
        for callee in qualified:
            edge_fraction = dcg.weight_fraction((caller_index, pc, callee))
            if self.callee_size(callee) <= self.size_threshold(edge_fraction):
                eligible.append(callee)
        if not eligible:
            rejected = qualified[0] if qualified else -1
            reason = (
                "exceeds-size-threshold" if qualified else "no-dominant-callee"
            )
            self._trace(caller_index, pc, rejected, "guarded", False, reason)
            return None
        reason = f"distribution-dominant-{len(eligible)}-targets"
        self._trace(caller_index, pc, eligible[0], "guarded", True, reason)
        return SiteDecision(GUARDED, eligible[0], tuple(eligible[1:]))
