"""Exhaustive (perfect) call-edge profiling.

Observes *every* dynamic call through the interpreter's call-observer
hook.  Two modes:

* ``charge_costs=False`` (default): a free oracle — the perfect profile
  the accuracy experiments compare against; adds no virtual time.
* ``charge_costs=True``: models real exhaustive instrumentation in the
  style of Vortex's PIC counters (paper §3.1), charging a per-call
  instrumentation cost so its overhead can be reported alongside the
  sampling techniques.

The observer is one closure over the DCG's edge dict: a call costs one
dict update (plus the virtual-time charge when charged).  The DCG's
total and :attr:`ExhaustiveProfiler.method_samples` are derived from
the edges when read.
"""

from __future__ import annotations

from collections import Counter

from repro.profiling.dcg import CountedDCG

#: Virtual cost of one counter update in instrumented dispatch code.
INSTRUMENTATION_COST = 6


class ExhaustiveProfiler:
    """Records every call edge; optionally charges instrumentation cost."""

    def __init__(self, charge_costs: bool = False):
        self.dcg = CountedDCG()
        self.charge_costs = charge_costs

    @property
    def method_samples(self) -> Counter:
        """Calls per callee, in first-call order, summed from the DCG."""
        samples: Counter = Counter()
        for (_, _, callee), count in self.dcg.edges().items():
            samples[callee] += int(count)
        return samples

    @property
    def samples_taken(self) -> int:
        """Calls recorded (the DCG's total weight)."""
        return int(self.dcg.total_weight)

    def install(self, vm) -> None:
        """Attach to ``vm``'s call-observer hook (not the profiler slot —
        an exhaustive profiler can run *alongside* a sampling profiler).
        Chains with any observer already installed."""
        edges = self.dcg.edges()
        # An edge is new only on its first call, so the common case is
        # one subscript update with no method call (dict.get costs one).
        if self.charge_costs:
            def observe(caller: int, callsite_pc: int, callee: int) -> None:
                try:
                    edges[caller, callsite_pc, callee] += 1.0
                except KeyError:
                    edges[caller, callsite_pc, callee] = 1.0
                vm.time += INSTRUMENTATION_COST
        else:
            def observe(caller: int, callsite_pc: int, callee: int) -> None:
                try:
                    edges[caller, callsite_pc, callee] += 1.0
                except KeyError:
                    edges[caller, callsite_pc, callee] = 1.0
        vm.add_call_observer(observe)

    # -- profiler slot (``vm.attach_profiler``) ----------------------------------

    def attach(self, vm) -> None:
        """Used as ``vm``'s profiler: record through the call observer;
        timer ticks and yieldpoints take no samples."""
        self.install(vm)

    def handle_timer(self, vm) -> None:
        pass

    def handle_yieldpoint(self, vm, kind: int) -> None:
        # Never reached: this profiler never sets the yieldpoint flag.
        vm.yieldpoint_flag = 0
