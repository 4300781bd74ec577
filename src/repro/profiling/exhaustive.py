"""Exhaustive (perfect) call-edge profiling.

Observes *every* dynamic call through the interpreter's call-observer
hook.  Two modes:

* ``charge_costs=False`` (default): a free oracle — the perfect profile
  the accuracy experiments compare against; adds no virtual time.
* ``charge_costs=True``: models real exhaustive instrumentation in the
  style of Vortex's PIC counters (paper §3.1), charging a per-call
  instrumentation cost so its overhead can be reported alongside the
  sampling techniques.
"""

from __future__ import annotations

from collections import Counter

from repro.profiling.dcg import DCG

#: Virtual cost of one counter update in instrumented dispatch code.
INSTRUMENTATION_COST = 6


class ExhaustiveProfiler:
    """Records every call edge; optionally charges instrumentation cost."""

    def __init__(self, charge_costs: bool = False):
        self.dcg = DCG()
        self.method_samples: Counter = Counter()
        self.charge_costs = charge_costs
        self._vm = None

    def install(self, vm) -> None:
        """Attach to ``vm``'s call-observer hook (not the profiler slot —
        an exhaustive profiler can run *alongside* a sampling profiler).
        Chains with any observer already installed."""
        self._vm = vm
        vm.add_call_observer(
            self._observe_charged if self.charge_costs else self._observe
        )

    def _observe(self, caller: int, callsite_pc: int, callee: int) -> None:
        self.dcg.record(caller, callsite_pc, callee)
        self.method_samples[callee] += 1

    def _observe_charged(self, caller: int, callsite_pc: int, callee: int) -> None:
        self.dcg.record(caller, callsite_pc, callee)
        self.method_samples[callee] += 1
        self._vm.time += INSTRUMENTATION_COST
