"""Code-patching (dynamic instrumentation) profiling, Suganuma et al.
style (paper §3.2).

The IBM DK 1.3.1 system skips a method's initial executions, then — once
the method is deemed worth profiling — patches a *listener* into its
prologue.  The listener records the caller–callee relationship on every
invocation; after a fixed number of samples it uninstalls itself by
patching the prologue back.

The reproduction models this on the call-observer hook:

* each method's invocations are counted;
* after ``warmup_invocations`` the listener is installed (charging the
  code-patch cost);
* while installed, every entry records an edge and charges the listener
  cost;
* after ``samples_per_method`` recorded samples the listener uninstalls
  (charging the patch cost again).

The characteristic weaknesses the paper points out emerge directly:
short-running programs exit before warmup completes (few methods ever
profiled), and all of a method's samples land in one short burst.
"""

from __future__ import annotations

from collections import Counter

from repro.profiling.dcg import DCG


class CodePatchingProfiler:
    """Burst-per-method dynamic instrumentation."""

    def __init__(self, warmup_invocations: int = 500, samples_per_method: int = 100):
        if warmup_invocations < 0:
            raise ValueError("warmup_invocations must be >= 0")
        if samples_per_method < 1:
            raise ValueError("samples_per_method must be >= 1")
        self.warmup_invocations = warmup_invocations
        self.samples_per_method = samples_per_method

        self.dcg = DCG()
        self.method_samples: Counter = Counter()
        self.samples_taken = 0
        self.patches_installed = 0
        self.patches_removed = 0

        self._invocations: Counter = Counter()
        self._listening: dict[int, int] = {}  # callee -> samples remaining
        self._done: set[int] = set()
        self._vm = None

    # The patching profiler is driven by calls, not yieldpoints, so it is
    # installed on the observer hook rather than the profiler slot.
    def install(self, vm) -> None:
        self._vm = vm
        vm.add_call_observer(self._observe)

    def _observe(self, caller: int, callsite_pc: int, callee: int) -> None:
        remaining = self._listening.get(callee)
        if remaining is not None:
            vm = self._vm
            cost_model = vm.config.cost_model
            vm.time += cost_model.patch_listener_cost
            self.dcg.record(caller, callsite_pc, callee)
            self.method_samples[callee] += 1
            self.samples_taken += 1
            if remaining <= 1:
                del self._listening[callee]
                self._done.add(callee)
                self.patches_removed += 1
                vm.time += cost_model.code_patch_cost
            else:
                self._listening[callee] = remaining - 1
            return
        if callee in self._done:
            return
        count = self._invocations[callee] + 1
        self._invocations[callee] = count
        if count >= self.warmup_invocations:
            self._listening[callee] = self.samples_per_method
            self.patches_installed += 1
            self._vm.time += self._vm.config.cost_model.code_patch_cost
