"""The adaptive optimization controller.

Modeled on Jikes RVM's adaptive optimization system: method samples
(from whichever profiler is installed — timer or CBS, the controller
does not care) drive promotion through optimization levels; promotion
(re)compiles the method through the optimizer pipeline with the
configured inlining policy.

Levels:

* 0 — baseline (whatever the code cache started with),
* 1 — static inlining only (no profile input),
* 2 — profile-directed inlining using the profiler's current DCG.

A method already at level 2 is *re*-optimized when its sample count has
doubled since its last compile, so maturing profiles can revise early
inlining decisions — this is where profile accuracy pays off or hurts.

Level 3, the template JIT, is not the controller's: with
``VMConfig.jit`` the JIT manager's trampoline (repro.vm.jit.manager)
compiles hot methods, and every method installed here goes back on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bytecode.program import Program
from repro.opt.inline import merge_plans
from repro.opt.pipeline import optimize_function
from repro.inlining.policy import InlinerPolicy
from repro.inlining.static_heur import StaticSizePolicy


@dataclass
class AdaptiveConfig:
    """Promotion thresholds and behavior switches."""

    #: Method samples required to reach each level.  Level 2 waits for a
    #: reasonably mature profile: its plan quality depends on the DCG,
    #: and sticky plans lock early decisions in.
    level1_samples: int = 3
    level2_samples: int = 24
    #: Re-optimize a level-2 method when samples have grown by this factor.
    reoptimize_growth: float = 2.0
    #: Use the profile (DCG) at level 2.  When False the policy runs with
    #: no DCG even at level 2 — the "static heuristics only" baseline.
    use_profile: bool = True
    #: Upper bound on recompilations per method (safety valve).
    max_compiles_per_method: int = 8
    #: Extend guard chains (PIC-style) when successive plans disagree on
    #: a guard target.  The Jikes-side new inliner uses this; the J9
    #: configuration models the paper's single-target dynamic guarding.
    extend_guard_chains: bool = True
    #: Exponential DCG decay (profile aging for phase tracking): every
    #: ``dcg_decay_period`` ticks, multiply all edge weights by
    #: ``dcg_decay_factor``.  1.0 disables decay (the default; the
    #: paper's accuracy experiments use undecayed cumulative profiles).
    dcg_decay_factor: float = 1.0
    dcg_decay_period: int = 100


@dataclass
class CompilationEvent:
    """Record of one adaptive recompilation (for tests and reports)."""

    tick: int
    function_index: int
    level: int
    inlines: int
    size_before: int
    size_after: int


class AdaptiveSystem:
    """Drives recompilation from profiler samples.  Install via
    :meth:`install`, which hooks the interpreter's tick callback."""

    def __init__(
        self,
        program: Program,
        policy: InlinerPolicy,
        config: AdaptiveConfig | None = None,
        static_policy: InlinerPolicy | None = None,
    ):
        self.program = program
        self.policy = policy
        self.config = config if config is not None else AdaptiveConfig()
        self.static_policy = (
            static_policy
            if static_policy is not None
            else StaticSizePolicy(program, cha=policy.cha)
        )
        self.events: list[CompilationEvent] = []
        self._last_compile_samples: dict[int, int] = {}
        self._compiles: dict[int, int] = {}
        self._last_plan: dict[int, object] = {}  # sticky level-2 plans
        self._decay_organizer = None

    def install(self, vm) -> None:
        if vm.tick_hook is not None:
            raise RuntimeError("interpreter already has a tick hook")
        vm.tick_hook = self.on_tick
        if vm.telemetry is not None and self.policy.telemetry is None:
            # Propagate the VM's tracer so inlining decisions made during
            # adaptive recompilation land in the same trace.
            self.policy.telemetry = vm.telemetry
            self.static_policy.telemetry = vm.telemetry

    # -- warm start (fleet profiles) --------------------------------------------------

    def warm_start(self, vm, dcg, threshold: float | None = None) -> list[int]:
        """Seed the controller from an aggregated offline DCG.

        Methods whose aggregate weight (incoming + outgoing edge weight,
        the offline analogue of method samples) meets ``threshold``
        (default: the level-2 promotion threshold) are compiled straight
        to level 2 with profile-directed plans *before* the run, so hot
        methods of short-running programs never wait for online samples.
        Seeded plans are sticky and re-optimization fires only after the
        run's own samples double the threshold — exactly as if the
        method had been promoted online.  Returns the promoted function
        indices (heaviest first).
        """
        config = self.config
        if threshold is None:
            threshold = float(config.level2_samples)
        weights: dict[int, float] = {}
        for (caller, _pc, callee), weight in dcg.edges().items():
            weights[callee] = weights.get(callee, 0.0) + weight
            weights[caller] = weights.get(caller, 0.0) + weight
        promoted: list[int] = []
        for function_index, weight in sorted(
            weights.items(), key=lambda item: (-item[1], item[0])
        ):
            if weight < threshold:
                continue
            if self._compiles.get(function_index, 0) >= config.max_compiles_per_method:
                continue
            plan = self.policy.plan_for(
                function_index, dcg if config.use_profile else None
            )
            result = optimize_function(self.program, plan)
            vm.code_cache.install(result.function, 2)
            self._last_plan[function_index] = plan
            self._compiles[function_index] = (
                self._compiles.get(function_index, 0) + 1
            )
            # Pretend the method was promoted with a full sample budget:
            # the run's own samples must double it to trigger re-opt.
            self._last_compile_samples[function_index] = int(threshold)
            promoted.append(function_index)
            self.events.append(
                CompilationEvent(
                    tick=vm.ticks,
                    function_index=function_index,
                    level=2,
                    inlines=result.inlines_applied,
                    size_before=result.size_before,
                    size_after=result.size_after,
                )
            )
            if vm.telemetry is not None:
                vm.telemetry.on_recompile(
                    vm.time,
                    function_index,
                    2,
                    result.inlines_applied,
                    result.size_before,
                    result.size_after,
                )
        if vm.telemetry is not None:
            vm.telemetry.on_warm_start(
                vm.time, len(promoted), len(dcg), dcg.total_weight
            )
        return promoted

    # -- tick processing ------------------------------------------------------------

    def on_tick(self, vm) -> None:
        profiler = vm.profiler
        if profiler is None:
            return
        config = self.config
        if config.dcg_decay_factor < 1.0:
            if self._decay_organizer is None:
                from repro.adaptive.organizer import DecayingDCGOrganizer

                self._decay_organizer = DecayingDCGOrganizer(
                    profiler.dcg,
                    factor=config.dcg_decay_factor,
                    period=config.dcg_decay_period,
                )
            self._decay_organizer.on_tick()
        cache = vm.code_cache
        for function_index, samples in profiler.method_samples.items():
            level = cache.opt_level(function_index)
            if level < 1 and samples >= config.level1_samples:
                self._recompile(vm, function_index, 1)
            elif level < 2 and samples >= config.level2_samples:
                self._recompile(vm, function_index, 2)
            elif level >= 2:
                last = self._last_compile_samples.get(function_index, samples)
                if samples >= last * config.reoptimize_growth:
                    self._recompile(vm, function_index, 2)

    def _recompile(self, vm, function_index: int, level: int) -> None:
        if self._compiles.get(function_index, 0) >= self.config.max_compiles_per_method:
            return
        profiler = vm.profiler
        if level >= 2:
            dcg = profiler.dcg if self.config.use_profile else None
            policy = self.policy
        else:
            dcg = None
            policy = self.static_policy
        plan = policy.plan_for(function_index, dcg)
        if level >= 2:
            previous = self._last_plan.get(function_index)
            if previous is not None:
                plan = merge_plans(
                    previous, plan, dcg, self.config.extend_guard_chains
                )
            self._last_plan[function_index] = plan
        result = optimize_function(self.program, plan)
        vm.code_cache.install(result.function, level)
        self._compiles[function_index] = self._compiles.get(function_index, 0) + 1
        self._last_compile_samples[function_index] = profiler.method_samples.get(
            function_index, 0
        )
        self.events.append(
            CompilationEvent(
                tick=vm.ticks,
                function_index=function_index,
                level=level,
                inlines=result.inlines_applied,
                size_before=result.size_before,
                size_after=result.size_after,
            )
        )
        if vm.telemetry is not None:
            vm.telemetry.on_recompile(
                vm.time,
                function_index,
                level,
                result.inlines_applied,
                result.size_before,
                result.size_after,
            )
