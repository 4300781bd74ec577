"""Shared machinery for inlining policies.

A *policy* turns (program, optional DCG profile) into an
:class:`~repro.opt.inline.InlinePlan` for a function.  The base class
walks the function's baseline call sites, asks the concrete policy for a
per-site decision, applies a size budget and depth limit, and recurses
into inlined callees so plans are fully nested.

The concrete policies (old/new Jikes, J9) implement only
:meth:`decide_site`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bytecode.opcodes import Op
from repro.bytecode.program import Program
from repro.opt.cha import ClassHierarchyAnalysis
from repro.opt.inline import DEVIRTUALIZE, GUARDED, InlineDecision, InlinePlan
from repro.profiling.dcg import DCG


@dataclass(frozen=True)
class SiteDecision:
    """What a policy wants done at one call site.

    ``extra_callees`` (GUARDED only) names additional guard-chain
    targets, tried in order after ``callee_index`` (polymorphic inline
    cache; paper §5.1's >40% rule can admit two targets).
    """

    kind: str  # DIRECT | GUARDED | DEVIRTUALIZE
    callee_index: int
    extra_callees: tuple[int, ...] = ()


@dataclass
class BudgetConfig:
    """Limits shared by every policy."""

    #: Maximum nesting depth of inlined bodies.
    max_depth: int = 4
    #: A function may grow by at most this many bytecode bytes.
    max_growth_bytes: int = 600
    #: Never inline a callee larger than this, whatever the heuristics say
    #: (the paper's "maximum allowable size" bound on the linear function).
    absolute_callee_limit: int = 200


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def try_spend(self, amount: int) -> bool:
        if amount > self.remaining:
            return False
        self.remaining -= amount
        return True


class InlinerPolicy:
    """Base class: budgeted, depth-limited, recursive plan construction."""

    name = "abstract"

    def __init__(
        self,
        program: Program,
        cha: ClassHierarchyAnalysis | None = None,
        budget: BudgetConfig | None = None,
    ):
        self.program = program
        self.cha = cha if cha is not None else ClassHierarchyAnalysis(program)
        self.budget_config = budget if budget is not None else BudgetConfig()
        #: Optional telemetry tracer; policies that explain their
        #: per-site decisions emit InlineDecisionEvent through it.
        self.telemetry = None

    # -- to be implemented by concrete policies ---------------------------------

    def decide_site(
        self,
        caller_index: int,
        pc: int,
        instr,
        dcg: DCG | None,
        depth: int,
    ) -> SiteDecision | None:
        """Return the desired action at one call site, or ``None``."""
        raise NotImplementedError

    # -- plan construction --------------------------------------------------------

    def plan_for(self, function_index: int, dcg: DCG | None = None) -> InlinePlan:
        """Build a nested inline plan for one function."""
        budget = _Budget(self.budget_config.max_growth_bytes)
        decisions = self._plan_sites(
            function_index, dcg, depth=0, chain={function_index}, budget=budget
        )
        return InlinePlan(function_index=function_index, decisions=decisions)

    def _plan_sites(
        self,
        function_index: int,
        dcg: DCG | None,
        depth: int,
        chain: set[int],
        budget: _Budget,
    ) -> list[InlineDecision]:
        if depth >= self.budget_config.max_depth:
            return []
        function = self.program.functions[function_index]
        decisions: list[InlineDecision] = []
        for pc, instr in enumerate(function.code):
            if instr.op is not Op.CALL_STATIC and instr.op is not Op.CALL_VIRTUAL:
                continue
            decision = self.decide_site(function_index, pc, instr, dcg, depth)
            if decision is None:
                continue
            callee_index = decision.callee_index
            if decision.kind == DEVIRTUALIZE:
                decisions.append(
                    InlineDecision(pc, callee_index, DEVIRTUALIZE)
                )
                continue
            if callee_index in chain:
                continue  # no recursive inlining cycles
            callee = self.program.functions[callee_index]
            size = callee.bytecode_size()
            if size > self.budget_config.absolute_callee_limit:
                continue
            if not budget.try_spend(size):
                continue
            nested = self._plan_sites(
                callee_index, dcg, depth + 1, chain | {callee_index}, budget
            )
            extras: list[InlineDecision] = []
            for extra_index in decision.extra_callees:
                if extra_index in chain or extra_index == callee_index:
                    continue
                extra_size = self.program.functions[extra_index].bytecode_size()
                if extra_size > self.budget_config.absolute_callee_limit:
                    continue
                if not budget.try_spend(extra_size):
                    continue
                extras.append(
                    InlineDecision(
                        pc,
                        extra_index,
                        GUARDED,
                        self._plan_sites(
                            extra_index, dcg, depth + 1, chain | {extra_index}, budget
                        ),
                    )
                )
            decisions.append(
                InlineDecision(pc, callee_index, decision.kind, nested, extras)
            )
        return decisions

    # -- helpers shared by concrete policies -----------------------------------------

    def static_callee(self, instr) -> int | None:
        """Statically bound target of a site, if any: the callee of a
        CALL_STATIC, or the unique CHA target of a CALL_VIRTUAL."""
        if instr.op is Op.CALL_STATIC:
            return instr.a
        return self.cha.monomorphic_target(instr.a)

    def callee_size(self, callee_index: int) -> int:
        return self.program.functions[callee_index].bytecode_size()
