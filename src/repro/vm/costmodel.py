"""The virtual-time cost model.

Wall-clock time in the paper's experiments becomes deterministic *virtual
time* here: every opcode, call, and profiling action is charged a cost in
abstract units.  The calibration (documented in EXPERIMENTS.md) treats
one unit as roughly 0.1 µs of 2004-era hardware, so the default timer
interval of 100,000 units corresponds to the 10 ms minimum interrupt
granularity the paper cites for stock Linux.

Two presets model the two host VMs.  The numbers differ (J9's dispatch
is cheaper, its interpreter ops slightly slower) so that the reproduction
exercises the technique on genuinely different substrates, as the paper
did; the profiling dynamics must survive the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bytecode.opcodes import Op

#: Length of a dense opcode-indexed table: one slot per opcode number.
OP_TABLE_SIZE = max(int(op) for op in Op) + 1

#: Baseline per-opcode costs (virtual units).
_DEFAULT_OP_COSTS: dict[Op, int] = {
    Op.PUSH: 1,
    Op.PUSH_NULL: 1,
    Op.POP: 1,
    Op.DUP: 1,
    Op.LOAD: 1,
    Op.STORE: 1,
    Op.ADD: 1,
    Op.SUB: 1,
    Op.MUL: 2,
    Op.DIV: 6,
    Op.MOD: 6,
    Op.NEG: 1,
    Op.NOT: 1,
    Op.LT: 1,
    Op.LE: 1,
    Op.GT: 1,
    Op.GE: 1,
    Op.EQ: 1,
    Op.NE: 1,
    Op.JUMP: 1,
    Op.JUMP_IF_FALSE: 1,
    Op.JUMP_IF_TRUE: 1,
    Op.CALL_STATIC: 0,  # charged via call_static_cost
    Op.CALL_VIRTUAL: 0,  # charged via call_virtual_cost
    Op.RETURN: 0,  # charged via return_cost
    Op.RETURN_VAL: 0,  # charged via return_cost
    Op.NEW: 12,
    Op.GETFIELD: 2,
    Op.PUTFIELD: 2,
    Op.IS_EXACT: 2,
    Op.GUARD_METHOD: 3,
    Op.NEW_ARRAY: 10,
    Op.ALOAD: 2,
    Op.ASTORE: 2,
    Op.ARRAY_LEN: 1,
    Op.PRINT: 25,
    Op.NOP: 1,
}


@dataclass(frozen=True)
class CostModel:
    """All virtual-time prices the interpreter charges."""

    #: Per-opcode execution cost.
    op_costs: dict[Op, int] = field(default_factory=lambda: dict(_DEFAULT_OP_COSTS))

    #: Frame setup/teardown for a static call (prologue side).
    call_static_cost: int = 10
    #: Virtual dispatch adds a vtable load over a static call.
    call_virtual_cost: int = 14
    #: Frame teardown on return.
    return_cost: int = 4

    #: Extra cost per method entry when the VM must use a dedicated
    #: 3-instruction flag check (load, compare, branch) because it cannot
    #: overload an existing check (paper §4 "Implementation Options").
    dedicated_entry_check_cost: int = 3

    #: Cost of transferring to the out-of-line runtime routine when a
    #: yieldpoint is taken.
    taken_yieldpoint_cost: int = 1

    #: Per-method-entry countdown work (Figure 3 logic) while a CBS
    #: profiling window is open.
    cbs_countdown_cost: int = 1

    #: Walking the call stack and updating the profile repository, per
    #: sample: a base cost plus a per-frame-walked cost.
    stack_walk_base_cost: int = 10
    stack_walk_frame_cost: int = 2

    #: Timer-interrupt service (setting flags, bookkeeping), per tick.
    timer_service_cost: int = 10

    #: Dynamic code patching (install/uninstall a listener), per patch
    #: (used by the Suganuma-style code-patching profiler).
    code_patch_cost: int = 400
    #: Per-invocation cost of an installed prologue listener.
    patch_listener_cost: int = 18

    #: "Compilation time" charged per bytecode-byte processed at each
    #: optimization level (used for the J9 compile-time-reduction result).
    compile_cost_per_byte: dict[int, int] = field(
        default_factory=lambda: {0: 2, 1: 6, 2: 18}
    )

    def cost_array(self) -> list[int]:
        """Dense opcode-indexed cost lookup for the interpreter hot loop."""
        table = [0] * OP_TABLE_SIZE
        for op, cost in self.op_costs.items():
            table[int(op)] = cost
        return table


def jikes_cost_model() -> CostModel:
    """Cost preset for the Jikes-RVM-like configuration."""
    return CostModel()


def j9_cost_model() -> CostModel:
    """Cost preset for the J9-like configuration.

    J9's compiled dispatch is cheaper but its runtime services (stack
    walking reuses general-purpose routines — paper §5.2) are costlier.
    """
    base = CostModel(
        call_static_cost=8,
        call_virtual_cost=11,
        return_cost=3,
        stack_walk_base_cost=14,
        stack_walk_frame_cost=3,
        taken_yieldpoint_cost=1,
        cbs_countdown_cost=1,
        timer_service_cost=12,
        compile_cost_per_byte={0: 3, 1: 8, 2: 22},
    )
    costs = dict(base.op_costs)
    costs[Op.GETFIELD] = 1
    costs[Op.PUTFIELD] = 1
    costs[Op.MUL] = 1
    costs[Op.DIV] = 5
    costs[Op.MOD] = 5
    return replace(base, op_costs=costs)
