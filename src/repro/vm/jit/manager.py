"""Level-3 JIT policy: count on a trampoline, compile what gets hot.

Jikes RVM's lazy-compilation trampoline, applied to level 3.  At
``attach()`` every method built so far, and later each method as the
code cache builds it on first entry, gets one shared stub
:class:`JitCode` whose ``fn`` is :func:`_trampoline`; the dispatch
arms already call ``method.jit.fn`` at method entry and at backward
jumps, so the stub sees exactly the two events that make a method hot
and nothing else changes.  Each bounce bumps the method's counter and
hands control straight back (``frame.pc`` untouched, counters untouched
— the interpreter carries on as if no body were installed).  The bounce that
reaches :data:`PROMOTE_THRESHOLD` compiles the method — its inline
caches have quickened by then, so the guards are baked from a warm
snapshot the first time — installs the real body and tail-calls it when
the current pc is one of its entries.  A method the compiler refuses
loses its stub for good; a method nobody calls costs nothing.

The tick hook keeps the refresh role only, over the methods actually
compiled: a method with a site that quickens (or grows its second or
third receiver class), or whose callee ``CodeCache.install`` replaced,
after compile is recompiled against the fresh IC snapshot, and methods
that ``CodeCache.install`` replaced since the last tick go back on the
trampoline.  All of it is host work on the host clock — like fusion
planning it charges no virtual time and emits no events, so observables
stay bit-identical with ``--no-jit``.

Adaptive runs use this manager too: the bodies the adaptive controller
installs at levels 1 and 2 are such replacements, so each goes back on
the trampoline and earns level 3 by the same count.
"""

from __future__ import annotations

import sys

from repro.bytecode.opcodes import Op
from repro.vm.jit.compiler import JitCode, compile_into, ic_signature, vm_jit_sig

#: Entries plus back-edge OSR attempts before a method is compiled.
#: One compile costs ~0.9 ms of host time, what interpreting 4–5k guest
#: steps costs, so promotion pays only for methods that will run at
#: least that much more.  Measured at 8 / 32 / 128 on the benchmark
#: (docs/PERFORMANCE.md, "JIT promotion threshold"): 8 compiles set-up
#: methods that never earn it back and is slower on all three VM
#: workloads; 128 is within noise of 32 on two and 2% slower on
#: ``run_loops``, whose hot loops should leave the interpreter early.
PROMOTE_THRESHOLD = 32

#: Give up on a method after this many compile attempts (promotion + IC
#: refreshes).  One site asks for at most two refreshes — its second
#: receiver class, then its third, which brings the polymorphic tail;
#: ``ic_signature`` reads every later state alike — so the bound only
#: binds on a method whose sites keep quickening or growing, or whose
#: callees keep being reinstalled, and bounds the host-side work spent
#: on it.
MAX_ATTEMPTS = 4

_OP_JUMP = int(Op.JUMP)

#: The stub's OSR entry set: every pc.
_ANY_PC = range(sys.maxsize)


def _trampoline(vm, frame, time, steps, call_count, next_tick):
    """``fn`` of every stub record: count one entry or back-edge OSR
    attempt against the method, promote it on the threshold.

    A bounce is not an entry, so on the way out the counter the arm
    just bumped is undone (exit accounting stays ``entries +
    osr_entries == exits``).  Entry arms arrive with ``frame.pc == 0``,
    the OSR arm with the loop head; a method whose loop head *is* pc 0
    carries an OSR-only stub (``entry0`` False), which keeps the two
    apart.  State lives on ``vm.jit_manager``, never in the stub, so a
    shared ``CodeCache`` can carry stubs from one run to the next."""
    method = frame.method
    osr = frame.pc != 0 or not method.jit.entry0
    manager = vm.jit_manager
    if manager is None:
        # A stub left on a shared cache by an earlier JIT run; nobody
        # here will ever promote it.
        method.jit = None
    else:
        heat = manager.heat.get(method, 0) + 1
        if heat < manager.threshold:
            manager.heat[method] = heat
        else:
            jrec = manager.promote(method)
            if jrec is not None and (
                frame.pc in jrec.entries if osr else jrec.entry0
            ):
                # The arm's bump stands: this one is a real entry.
                return jrec.fn(vm, frame, time, steps, call_count, next_tick)
    if osr:
        vm.jit_osr_entries -= 1
    else:
        vm.jit_entries -= 1
    return (time, steps, call_count)


def _loop_head_at_zero(method) -> bool:
    """True when some ``JUMP`` targets pc 0 (necessarily backward)."""
    ops, a = method.ops, method.a
    pc = -1
    try:
        while True:
            pc = ops.index(_OP_JUMP, pc + 1)
            if a[pc] == 0:
                return True
    except ValueError:
        return False


class JitManager:
    """``threshold`` exists so tests and fuzz cells can force promotion
    at first entry (``threshold=1``); product code never passes it."""

    __slots__ = (
        "vm", "threshold", "heat", "attempts", "compiled", "_stubs", "_installs",
    )

    def __init__(self, vm, threshold: int = PROMOTE_THRESHOLD):
        self.vm = vm
        self.threshold = threshold
        #: method -> bounces so far (methods still on the trampoline).
        self.heat: dict = {}
        #: method -> compile attempts; MAX_ATTEMPTS means "given up".
        self.attempts: dict = {}
        #: Current methods running a real body — the tick hook's
        #: refresh set (a dict for its deterministic order).
        self.compiled: dict = {}
        self._stubs: tuple = ()
        self._installs = 0

    def attach(self) -> None:
        """Put every method without a current body on the trampoline
        and hook the virtual timer."""
        sig = vm_jit_sig(self.vm)
        self._stubs = tuple(
            JitCode(_trampoline, entry0, _ANY_PC, sig)
            for entry0 in (False, True)
        )
        self._stub_cold_methods()
        self.vm.chain_tick_hook(self.on_tick)

    def _stub_cold_methods(self) -> None:
        """Stub methods with no body, or one compiled under other
        hooks; adopt every other current body (an earlier run on a
        shared cache may have left some) so its guards get refreshed.
        A method built later, on its first entry, is stubbed then."""
        cache = self.vm.code_cache
        self._installs = cache.compile_count
        sig = self._stubs[0].sig
        for method in cache.built:
            if method is None:
                continue
            jrec = method.jit
            if jrec is None or jrec.sig != sig:
                self._stub(method)
            elif jrec.source is not None:
                self.compiled[method] = None
        cache.on_build = self._stub

    def _stub(self, method) -> None:
        """Put ``method`` on the trampoline unless it was given up on."""
        if self.attempts.get(method, 0) < MAX_ATTEMPTS:
            osr_only, entry_and_osr = self._stubs
            method.jit = osr_only if _loop_head_at_zero(method) else entry_and_osr

    def on_tick(self, vm) -> None:
        cache = vm.code_cache
        if cache.compile_count != self._installs:
            # install() replaced something: the fresh CompiledMethod
            # starts over on the trampoline, the old one needs no care
            # (the pass below re-adopts every body still current).
            self.compiled.clear()
            self._stub_cold_methods()
        for method in self.compiled:
            if method.jit.ic_sig != ic_signature(method):
                self._compile(method)

    def promote(self, method) -> JitCode | None:
        """Compile a method that reached the threshold; returns the
        installed body, or None after clearing ``method.jit`` for good
        when the method is ineligible."""
        self.heat.pop(method, None)
        if self._compile(method):
            self.compiled[method] = None
            return method.jit
        method.jit = None
        self.attempts[method] = MAX_ATTEMPTS
        return None

    def _compile(self, method) -> bool:
        tries = self.attempts.get(method, 0)
        if tries >= MAX_ATTEMPTS:
            return False
        self.attempts[method] = tries + 1
        return compile_into(self.vm, method)
