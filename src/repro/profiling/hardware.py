"""Simulated hardware call sampling (the paper's §7 alternative).

The paper observes that PMU-style hardware could sample executed call
instructions directly — "low overhead, but somewhat imprecise" on the
Pentium 4 — capturing the call PC and target PC every N-th call.  The
simulation models exactly that trade:

* a hardware *period* counter fires every ``period`` dynamic calls
  (no software cost: the counting happens "in hardware", i.e. on the
  call-observer hook with zero virtual-time charge);
* *skid*: the sampled call is not the one that tripped the counter but
  one up to ``max_skid`` calls later (seeded, uniform), modeling the
  imprecise attribution of cheap PMU sampling;
* draining a sample into the profile costs ``drain_cost`` virtual time
  (the interrupt/buffer-read the VM still pays for).

Because the trigger counts *calls* rather than time, this sampler has
CBS-like accuracy characteristics; its deficiencies in practice are the
engineering ones the paper lists (per-microarchitecture PMU code),
which a simulator cannot capture.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.profiling.dcg import DCG

#: Virtual cost of draining one sample from the PMU buffer.
DEFAULT_DRAIN_COST = 4


class HardwareCallSampler:
    """Period-based call sampling with attribution skid."""

    def __init__(
        self,
        period: int = 97,
        max_skid: int = 4,
        jitter: int = 0,
        drain_cost: int = DEFAULT_DRAIN_COST,
        seed: int = 4242,
    ):
        """``jitter`` adds a random 0..jitter to each period, breaking
        the aliasing that afflicts fixed-period sampling of periodic
        call patterns (real PMU drivers randomize for the same
        reason)."""
        if period < 1:
            raise ValueError("period must be >= 1")
        if max_skid < 0:
            raise ValueError("max_skid must be >= 0")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self.period = period
        self.max_skid = max_skid
        self.jitter = jitter
        self.drain_cost = drain_cost

        self.dcg = DCG()
        self.method_samples: Counter = Counter()
        self.samples_taken = 0

        self._rng = random.Random(seed)
        self._countdown = period
        self._skid_remaining: int | None = None
        self._vm = None

    def install(self, vm) -> None:
        """Attach to the call-observer hook (chains with any existing)."""
        self._vm = vm
        vm.add_call_observer(self._observe)

    def _observe(self, caller: int, callsite_pc: int, callee: int) -> None:
        if self._skid_remaining is not None:
            if self._skid_remaining == 0:
                self.dcg.record(caller, callsite_pc, callee)
                self.method_samples[callee] += 1
                self.samples_taken += 1
                self._vm.time += self.drain_cost
                self._skid_remaining = None
            else:
                self._skid_remaining -= 1
            return
        self._countdown -= 1
        if self._countdown == 0:
            self._countdown = self.period + (
                self._rng.randint(0, self.jitter) if self.jitter else 0
            )
            skid = self._rng.randint(0, self.max_skid) if self.max_skid else 0
            if skid == 0:
                # Precise attribution: the triggering call itself.
                self.dcg.record(caller, callsite_pc, callee)
                self.method_samples[callee] += 1
                self.samples_taken += 1
                self._vm.time += self.drain_cost
            else:
                self._skid_remaining = skid - 1
