"""Generated dispatch loop for the Mini VM interpreter — DO NOT EDIT.

This file is produced from the declarative opcode specs
(repro.bytecode.opcodes.OPCODE_SPECS), the measured superinstruction
table (repro.vm.fuse.WINDOWS), and the inline-cache entry layouts
(repro.vm.ic) by

    python -m repro.vm.dispatchgen --write

Hand edits are overwritten on the next regeneration, and
tests/vm/test_dispatch_tree.py fails if this file differs from what the
specs produce.  To change dispatch behavior, edit the specs or the
generator templates and regenerate; see docs/OPCODES.md.

repro.vm.interpreter imports ``_loop`` from here and installs it as
``Interpreter._loop`` (it also injects ``Frame`` and ``_FREED_LOCALS``
below, avoiding a circular import).
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op
from repro.vm import fuse as fusion
from repro.vm import ic as icache
from repro.vm.errors import (
    ArrayBoundsError,
    DivisionByZeroError,
    NullPointerError,
    StackOverflowError_,
    VMError,
)
from repro.vm.values import HeapArray, HeapObject
from repro.vm.yieldpoint import BACKEDGE, EPILOGUE, PROLOGUE

# Injected by repro.vm.interpreter at import time (the interpreter
# module owns these definitions; assigning them here would import it
# circularly).
Frame = None
_FREED_LOCALS = None


def _loop(self):  # noqa: C901 - deliberately one flat hot loop
    config = self.config
    cost_model = config.cost_model
    frames = self.frames
    cache_methods = self.code_cache.built
    cache_current = self.code_cache.current
    vtables = self.vtables
    field_defaults = self.class_field_defaults
    observer = self.call_observer
    telemetry = self.telemetry
    hooked = observer is not None or telemetry is not None
    seen = self._seen
    pool = self._frame_pool

    prologue_yp = config.prologue_yieldpoints
    epilogue_yp = config.epilogue_yieldpoints
    backedge_yp = config.backedge_yieldpoints
    entry_extra = (
        0 if config.overloaded_entry_check else cost_model.dedicated_entry_check_cost
    )
    call_static_cost = cost_model.call_static_cost + entry_extra
    call_virtual_cost = cost_model.call_virtual_cost + entry_extra
    return_cost = cost_model.return_cost
    max_frames = config.max_frames
    max_steps = config.max_steps

    frame = frames[-1]
    method = frame.method
    ops = method.fops
    aarg = method.a
    barg = method.b
    costs = method.fcosts
    faarg = method.fa
    fbarg = method.fb
    origins = method.origins
    ics = method.ics
    stack = frame.stack
    locals_ = frame.locals
    pc = 0

    time = self.time
    next_tick = self.next_tick
    steps = self.steps
    call_count = self.call_count
    fused_n = self.fused_dispatches
    deopts = self.fusion_deopts
    #: True while a pending tick forces step-wise (raw) execution of
    #: a fused group; reset when the tick fires.  The tick always
    #: fires inside the group, so this never survives a frame switch.
    dequickened = False
    #: (exception class, message, component) of a fused arm's guest fault,
    #: which the arm leaves the loop to raise.
    fault = None

    # Opcode constants as plain ints (IntEnum comparison is slower).
    OP_PUSH = int(Op.PUSH)
    OP_PUSH_NULL = int(Op.PUSH_NULL)
    OP_POP = int(Op.POP)
    OP_DUP = int(Op.DUP)
    OP_LOAD = int(Op.LOAD)
    OP_STORE = int(Op.STORE)
    OP_ADD = int(Op.ADD)
    OP_SUB = int(Op.SUB)
    OP_MUL = int(Op.MUL)
    OP_DIV = int(Op.DIV)
    OP_MOD = int(Op.MOD)
    OP_NEG = int(Op.NEG)
    OP_NOT = int(Op.NOT)
    OP_LT = int(Op.LT)
    OP_LE = int(Op.LE)
    OP_GT = int(Op.GT)
    OP_GE = int(Op.GE)
    OP_EQ = int(Op.EQ)
    OP_NE = int(Op.NE)
    OP_JUMP = int(Op.JUMP)
    OP_JUMP_IF_FALSE = int(Op.JUMP_IF_FALSE)
    OP_JUMP_IF_TRUE = int(Op.JUMP_IF_TRUE)
    OP_CALL_STATIC = int(Op.CALL_STATIC)
    OP_CALL_VIRTUAL = int(Op.CALL_VIRTUAL)
    OP_RETURN = int(Op.RETURN)
    OP_RETURN_VAL = int(Op.RETURN_VAL)
    OP_NEW = int(Op.NEW)
    OP_GETFIELD = int(Op.GETFIELD)
    OP_PUTFIELD = int(Op.PUTFIELD)
    OP_IS_EXACT = int(Op.IS_EXACT)
    OP_GUARD_METHOD = int(Op.GUARD_METHOD)
    OP_NEW_ARRAY = int(Op.NEW_ARRAY)
    OP_ALOAD = int(Op.ALOAD)
    OP_ASTORE = int(Op.ASTORE)
    OP_ARRAY_LEN = int(Op.ARRAY_LEN)
    OP_PRINT = int(Op.PRINT)
    OP_NOP = int(Op.NOP)
    # Inline-cache quickened opcodes (see repro.vm.ic).  ``ics`` is
    # None exactly when the code cache was built without ICs, in
    # which case none of these opcodes ever appear in ``fops``.
    OP_IC_CALL_VIRTUAL = icache.OP_IC_CALL_VIRTUAL
    OP_IC_CALL_STATIC = icache.OP_IC_CALL_STATIC
    LEAF_VOID = icache.LEAF_VOID
    LEAF_FAIL = icache.LEAF_FAIL
    locals_pad = icache.locals_pad
    flat_vtables = self.flat_vtables

    # Superinstruction constants (see repro.vm.fuse).
    FUSE_BASE = fusion.FUSE_BASE
    F_LOAD_GETFIELD_LOAD = FUSE_BASE + 0
    F_LOAD_PUSH_ADD_STORE = FUSE_BASE + 1
    F_LOAD_LOAD = FUSE_BASE + 2
    F_LOAD_PUSH = FUSE_BASE + 3
    F_ADD_PUSH_MOD_STORE = FUSE_BASE + 4
    F_LT_JIF = FUSE_BASE + 5
    F_LOAD_LOAD_GETFIELD = FUSE_BASE + 6
    F_LOAD_GETFIELD_MOD_ALOAD_GETFIELD_PUSH_LT_JIF = FUSE_BASE + 7
    F_LOAD_LOAD_LT_JIF = FUSE_BASE + 8
    F_LOAD_GETFIELD = FUSE_BASE + 9
    F_LOAD_PUSH_MUL_PUSH_ADD_PUSH_MOD_STORE = FUSE_BASE + 10
    F_ALOAD_STORE_LOAD = FUSE_BASE + 11
    F_PUSH_SUB_ALOAD_ASTORE_LOAD_PUSH_SUB_STORE = FUSE_BASE + 12
    F_LOAD_GETFIELD_LOAD_GETFIELD = FUSE_BASE + 13
    F_LOAD_PUSH_MOD = FUSE_BASE + 14
    F_MUL_LOAD_ADD_LOAD_ADD_PUSH_MOD_STORE = FUSE_BASE + 15
    F_ALOAD_MUL_PUSH_DIV_ADD_STORE = FUSE_BASE + 16
    F_STORE_DUP_GUARD_METHOD_JIF = FUSE_BASE + 17
    F_GE_DUP_JIF = FUSE_BASE + 18
    F_LOAD_LOAD_GETFIELD_LT_JIF = FUSE_BASE + 19
    F_ASTORE_LOAD_PUSH_ADD_STORE = FUSE_BASE + 20
    F_LOAD_LOAD_GETFIELD_PUSH_ADD_PUTFIELD = FUSE_BASE + 21
    F_LOAD_GETFIELD_LOAD_ALOAD_LOAD_LOAD = FUSE_BASE + 22
    F_PUSH_MOD = FUSE_BASE + 23
    F_LOAD_LOAD_GETFIELD_LOAD_LOAD_SUB_ALOAD_LOAD = FUSE_BASE + 24
    F_LOAD_PUSH_LT_JIF = FUSE_BASE + 25
    F_LOAD_GETFIELD_PUSH_NULL_EQ_JIF = FUSE_BASE + 26
    F_LT_DUP_JIF = FUSE_BASE + 27
    F_LOAD_GETFIELD_LOAD_ALOAD_STORE_LOAD_LOAD = FUSE_BASE + 28
    F_STORE_LOAD_LOAD_GETFIELD_NE_JIF = FUSE_BASE + 29
    F_LOAD_LOAD_GETFIELD_LOAD_ALOAD_LOAD_GETFIELD_LOAD = FUSE_BASE + 30
    F_LOAD_GETFIELD_LOAD_NE_JIF = FUSE_BASE + 31
    F_POP_LOAD_GETFIELD_LOAD_GETFIELD_ALOAD_PUSH = FUSE_BASE + 32
    F_PUSH_EQ_JIF = FUSE_BASE + 33
    F_POP_LOAD_LOAD_LT = FUSE_BASE + 34
    F_LOAD_LOAD_PUSH_MOD_ADD = FUSE_BASE + 35
    F_LOAD_SUB_ALOAD_ASTORE_LOAD_LOAD_SUB_STORE = FUSE_BASE + 36
    F_LOAD_PUSH_GT_JIF = FUSE_BASE + 37
    F_ALOAD_STORE_LOAD_LOAD_GE_DUP_JIF = FUSE_BASE + 38
    F_LOAD_LOAD_PUTFIELD = FUSE_BASE + 39
    F_STORE_STORE_STORE_LOAD_GETFIELD_JIF = FUSE_BASE + 40
    F_POP_LOAD_LOAD_PUSH_SUB_LT = FUSE_BASE + 41
    F_LOAD_LOAD_PUSH_LOAD_LOAD_ADD_PUSH_MOD = FUSE_BASE + 42
    F_ALOAD_STORE_LOAD_LOAD_GETFIELD_PUSH_ADD_PUTFIELD = FUSE_BASE + 43
    F_STORE_LOAD_LOAD_MUL_PUSH_DIV_LOAD_LOAD = FUSE_BASE + 44
    F_LOAD_LOAD_ALOAD_ASTORE_LOAD_PUSH_ADD_STORE = FUSE_BASE + 45
    F_LOAD_PUSH_MUL_LOAD_GETFIELD_LOAD_GETFIELD_ALOAD = FUSE_BASE + 46
    F_LOAD_PUSH_MOD_ASTORE_LOAD_PUSH_ADD_STORE = FUSE_BASE + 47
    F_MUL_LOAD_ADD_PUSH_MOD_STORE = FUSE_BASE + 48
    F_PUSH_STORE = FUSE_BASE + 49
    F_NEW_DUP = FUSE_BASE + 50
    F_LOAD_LOAD_GT_JIF = FUSE_BASE + 51
    F_STORE_LOAD_PUSH_GE_JIF = FUSE_BASE + 52
    F_LOAD_GETFIELD_LOAD_LOAD_GETFIELD_LOAD = FUSE_BASE + 53
    F_LOAD_GETFIELD_LOAD_GETFIELD_SUB = FUSE_BASE + 54
    F_LOAD_GETFIELD_LOAD_GETFIELD_ARRAY_LEN_GE_JIF = FUSE_BASE + 55
    F_LOAD_PUSH_EQ_JIF = FUSE_BASE + 56
    F_STORE_LOAD_PUSH_LE_DUP_JUMP_IF_TRUE = FUSE_BASE + 57
    F_LOAD_GETFIELD_STORE = FUSE_BASE + 58
    F_LOAD_LOAD_SUB_STORE_LOAD_PUSH_LT_JIF = FUSE_BASE + 59
    # Opt-level-3 signature of this run's hook configuration (see
    # repro.vm.jit.compiler.jit_sig): compiled bodies are entered
    # only when they were generated for exactly these hooks.
    jit_sig = 0 if hooked else 1

    result = None
    jrec = method.jit
    if jrec is not None and jrec.sig == jit_sig and self.yieldpoint_flag == 0 and time < next_tick and jrec.entry0:
        frame.pc = pc
        self.jit_entries += 1
        time, steps, call_count = jrec.fn(self, frame, time, steps, call_count, next_tick)
        pc = frame.pc
    while True:
        op = ops[pc]
        if op < FUSE_BASE:
            # ---- raw instruction path (identical to the classic loop) ----
            time += costs[pc]
            steps += 1
            if time >= next_tick:
                # Sync cached state, fire the timer, reload.
                self.time = time
                self.steps = steps
                self.call_count = call_count
                self.fused_dispatches = fused_n
                self.fusion_deopts = deopts
                frame.pc = pc
                self._fire_timer()
                time = self.time
                next_tick = self.next_tick
                if steps >= max_steps:
                    raise self._step_limit(
                        time, steps, call_count, fused_n, deopts, frame, method, pc
                    )
                if dequickened:
                    # The pending tick that forced step-wise execution
                    # has fired; resume superinstruction dispatch.
                    dequickened = False
                    ops = method.fops
                    costs = method.fcosts
            if op < 33:
                if op < 11:
                    if op == OP_PUSH:
                        stack.append(aarg[pc])
                        pc += 1
                    elif op == OP_LOAD:
                        stack.append(locals_[aarg[pc]])
                        pc += 1
                    elif op == OP_POP:
                        stack.pop()
                        pc += 1
                    elif op == OP_DUP:
                        stack.append(stack[-1])
                        pc += 1
                    elif op == OP_PUSH_NULL:
                        stack.append(None)
                        pc += 1
                    else:
                        break
                else:
                    if op == OP_STORE:
                        locals_[aarg[pc]] = stack.pop()
                        pc += 1
                    elif op == OP_ADD:
                        right = stack.pop()
                        stack[-1] += right
                        pc += 1
                    elif op == OP_MUL:
                        right = stack.pop()
                        stack[-1] *= right
                        pc += 1
                    elif op == OP_SUB:
                        right = stack.pop()
                        stack[-1] -= right
                        pc += 1
                    elif op == OP_MOD:
                        right = stack.pop()
                        t0 = stack[-1]
                        if right == 0:
                            raise self._fault(
                                DivisionByZeroError, "division by zero",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        t1 = abs(t0) // abs(right)
                        if (t0 < 0) != (right < 0): t1 = -t1
                        stack[-1] = t0 - t1 * right
                        pc += 1
                    elif op == OP_LT:
                        right = stack.pop()
                        stack[-1] = 1 if (stack[-1] < right) else 0
                        pc += 1
                    elif op == OP_DIV:
                        right = stack.pop()
                        t0 = stack[-1]
                        if right == 0:
                            raise self._fault(
                                DivisionByZeroError, "division by zero",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        t1 = abs(t0) // abs(right)
                        if (t0 < 0) != (right < 0): t1 = -t1
                        stack[-1] = t1
                        pc += 1
                    elif op == OP_LE:
                        right = stack.pop()
                        stack[-1] = 1 if (stack[-1] <= right) else 0
                        pc += 1
                    elif op == OP_NOT:
                        stack[-1] = 0 if stack[-1] != 0 else 1
                        pc += 1
                    elif op == OP_NEG:
                        stack[-1] = -stack[-1]
                        pc += 1
                    else:
                        break
            else:
                if op < 53:
                    if op == OP_JUMP:
                        target = aarg[pc]
                        if target <= pc:
                            if steps >= max_steps:
                                raise self._step_limit(
                                    time, steps, call_count, fused_n, deopts, frame, method, pc
                                )
                            if backedge_yp and self.yieldpoint_flag > 0:
                                self.time = time
                                self.call_count = call_count
                                frame.pc = pc
                                self._take_yieldpoint(BACKEDGE)
                                time = self.time
                            jrec = method.jit
                            if jrec is not None and jrec.sig == jit_sig and self.yieldpoint_flag == 0 and time < next_tick and target in jrec.entries:
                                frame.pc = target
                                self.jit_osr_entries += 1
                                time, steps, call_count = jrec.fn(self, frame, time, steps, call_count, next_tick)
                                pc = frame.pc
                                continue
                        pc = target
                        continue
                    elif op == OP_JUMP_IF_FALSE:
                        if stack.pop() == 0:
                            target = aarg[pc]
                            if target <= pc and steps >= max_steps:
                                raise self._step_limit(
                                    time, steps, call_count, fused_n, deopts, frame, method, pc
                                )
                            pc = target
                            continue
                        pc += 1
                    elif op == OP_RETURN:
                        time += return_cost
                        if epilogue_yp and self.yieldpoint_flag != 0:
                            self.time = time
                            self.call_count = call_count
                            frame.pc = pc
                            self._take_yieldpoint(EPILOGUE)
                            time = self.time
                        dead = frames.pop()
                        if not frames:
                            result = None
                            break
                        del dead.stack[:]
                        dead.locals = _FREED_LOCALS
                        pool.append(dead)
                        frame = frames[-1]
                        method = frame.method
                        ops, aarg, barg, costs, faarg, fbarg, origins, ics = method.views
                        stack = frame.stack
                        locals_ = frame.locals
                        pc = frame.pc
                    elif op == OP_GT:
                        right = stack.pop()
                        stack[-1] = 1 if (stack[-1] > right) else 0
                        pc += 1
                    elif op == OP_EQ:
                        right = stack.pop()
                        t0 = stack[-1]
                        stack[-1] = 1 if ((t0 == right) if (isinstance(t0, int) and isinstance(right, int)) else (t0 is right)) else 0
                        pc += 1
                    elif op == OP_NE:
                        right = stack.pop()
                        t0 = stack[-1]
                        stack[-1] = 1 if ((t0 != right) if (isinstance(t0, int) and isinstance(right, int)) else (t0 is not right)) else 0
                        pc += 1
                    elif op == OP_GE:
                        right = stack.pop()
                        stack[-1] = 1 if (stack[-1] >= right) else 0
                        pc += 1
                    elif op == OP_JUMP_IF_TRUE:
                        if stack.pop() != 0:
                            target = aarg[pc]
                            if target <= pc and steps >= max_steps:
                                raise self._step_limit(
                                    time, steps, call_count, fused_n, deopts, frame, method, pc
                                )
                            pc = target
                            continue
                        pc += 1
                    elif op == OP_CALL_VIRTUAL:
                        nargs = barg[pc] + 1
                        if steps >= max_steps:
                            raise self._step_limit(
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        receiver = stack[-nargs]
                        if receiver is None:
                            raise self._fault(
                                NullPointerError, "virtual call on null",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        rclass = receiver.class_index
                        selector = aarg[pc]
                        row = flat_vtables[rclass]
                        callee_index = row[selector] if selector < len(row) else -1
                        if callee_index < 0:
                            self._sync(time, steps, call_count, fused_n, deopts, frame, pc)
                            raise self._missing_selector(rclass, selector, method, pc)
                        callee = cache_methods[callee_index]
                        if callee is None:
                            callee = cache_current(callee_index)
                        views = callee.views
                        pad = locals_pad(callee.num_locals, nargs)
                        if ics is not None:
                            self._quicken_virtual(method, pc, rclass, callee, nargs)
                        if not seen[callee_index]:
                            seen[callee_index] = True
                            self.methods_executed += 1
                        time += call_virtual_cost
                        call_count += 1
                        if hooked:
                            origin = origins[pc]
                            if origin is None:
                                caller_index = method.index
                                site_pc = pc
                            else:
                                caller_index, site_pc = origin
                            if observer is not None:
                                self.time = time
                                observer(caller_index, site_pc, callee_index)
                                time = self.time
                            if telemetry is not None:
                                telemetry.on_call(time, caller_index, site_pc, callee_index)
                        if len(frames) >= max_frames:
                            raise self._fault(
                                StackOverflowError_, f"guest stack exceeded {max_frames} frames",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        base = len(stack) - nargs
                        new_locals = stack[base:]
                        del stack[base:]
                        if pad:
                            new_locals.extend(pad)
                        frame.pc = pc + 1  # return address
                        if pool:
                            frame = pool.pop()
                            frame.method = callee
                            frame.pc = 0
                            frame.locals = new_locals
                            frame.callsite_pc = pc
                        else:
                            frame = Frame(callee, new_locals, pc)
                        frames.append(frame)
                        method = callee
                        ops, aarg, barg, costs, faarg, fbarg, origins, ics = views
                        stack = frame.stack
                        locals_ = frame.locals
                        pc = 0
                        if prologue_yp and self.yieldpoint_flag != 0:
                            self.time = time
                            self.call_count = call_count
                            self._take_yieldpoint(PROLOGUE)
                            time = self.time
                        jrec = method.jit
                        if jrec is not None and jrec.sig == jit_sig and self.yieldpoint_flag == 0 and time < next_tick and jrec.entry0:
                            self.jit_entries += 1
                            time, steps, call_count = jrec.fn(self, frame, time, steps, call_count, next_tick)
                            pc = frame.pc
                    elif op == OP_CALL_STATIC:
                        if steps >= max_steps:
                            raise self._step_limit(
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        callee_index = aarg[pc]
                        callee = cache_methods[callee_index]
                        if callee is None:
                            callee = cache_current(callee_index)
                        views = callee.views
                        pad = locals_pad(callee.num_locals, barg[pc])
                        if ics is not None:
                            self._quicken_static(method, pc, callee, barg[pc])
                        if not seen[callee_index]:
                            seen[callee_index] = True
                            self.methods_executed += 1
                        time += call_static_cost
                        call_count += 1
                        if hooked:
                            origin = origins[pc]
                            if origin is None:
                                caller_index = method.index
                                site_pc = pc
                            else:
                                caller_index, site_pc = origin
                            if observer is not None:
                                self.time = time
                                observer(caller_index, site_pc, callee_index)
                                time = self.time
                            if telemetry is not None:
                                telemetry.on_call(time, caller_index, site_pc, callee_index)
                        if len(frames) >= max_frames:
                            raise self._fault(
                                StackOverflowError_, f"guest stack exceeded {max_frames} frames",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        base = len(stack) - barg[pc]
                        new_locals = stack[base:]
                        del stack[base:]
                        if pad:
                            new_locals.extend(pad)
                        frame.pc = pc + 1  # return address
                        if pool:
                            frame = pool.pop()
                            frame.method = callee
                            frame.pc = 0
                            frame.locals = new_locals
                            frame.callsite_pc = pc
                        else:
                            frame = Frame(callee, new_locals, pc)
                        frames.append(frame)
                        method = callee
                        ops, aarg, barg, costs, faarg, fbarg, origins, ics = views
                        stack = frame.stack
                        locals_ = frame.locals
                        pc = 0
                        if prologue_yp and self.yieldpoint_flag != 0:
                            self.time = time
                            self.call_count = call_count
                            self._take_yieldpoint(PROLOGUE)
                            time = self.time
                        jrec = method.jit
                        if jrec is not None and jrec.sig == jit_sig and self.yieldpoint_flag == 0 and time < next_tick and jrec.entry0:
                            self.jit_entries += 1
                            time, steps, call_count = jrec.fn(self, frame, time, steps, call_count, next_tick)
                            pc = frame.pc
                    else:
                        break
                else:
                    if op == OP_IC_CALL_VIRTUAL:
                        entry = ics[pc]
                        nargs = entry[0]
                        if steps >= max_steps:
                            raise self._step_limit(
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        receiver = stack[-nargs]
                        if receiver is None:
                            raise self._fault(
                                NullPointerError, "virtual call on null",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        rclass = receiver.class_index
                        if rclass == entry[1]:
                            callee = entry[2]
                            callee_index = entry[3]
                            views = entry[4]
                            pad = entry[5]
                            cell = entry[6]
                        elif rclass == entry[7]:
                            callee = entry[8]
                            callee_index = entry[9]
                            views = entry[10]
                            pad = entry[11]
                            cell = entry[12]
                        else:
                            for r in entry[13] or ():
                                if r[0] == rclass:
                                    self.ic_misses += 1
                                    callee = r[1]
                                    callee_index = r[2]
                                    views = r[3]
                                    pad = r[4]
                                    cell = r[5]
                                    break
                            else:
                                if entry[15] <= 8:
                                    cell = None
                                    self._sync(time, steps, call_count, fused_n, deopts, frame, pc)
                                    callee, callee_index, views, pad = self._ic_virtual_slow(entry, rclass, method, pc)
                                else:
                                    self.ic_misses += 1
                                    selector = aarg[pc]
                                    row = flat_vtables[rclass]
                                    callee_index = row[selector] if selector < len(row) else -1
                                    if callee_index < 0:
                                        self._sync(time, steps, call_count, fused_n, deopts, frame, pc)
                                        raise self._missing_selector(rclass, selector, method, pc)
                                    callee = cache_methods[callee_index]
                                    if callee is None:
                                        callee = cache_current(callee_index)
                                    cells = entry[16]
                                    cell = cells.get(rclass)
                                    if cell is None:
                                        cell = cells[rclass] = [0]
                                    if not seen[callee_index]:
                                        seen[callee_index] = True
                                        self.methods_executed += 1
                                    views = callee.views
                                    pad = locals_pad(callee.num_locals, nargs)
                        if cell is not None:
                            cell[0] += 1
                        time += call_virtual_cost
                        call_count += 1
                        if hooked:
                            origin = origins[pc]
                            if origin is None:
                                caller_index = method.index
                                site_pc = pc
                            else:
                                caller_index, site_pc = origin
                            if observer is not None:
                                self.time = time
                                observer(caller_index, site_pc, callee_index)
                                time = self.time
                            if telemetry is not None:
                                telemetry.on_call(time, caller_index, site_pc, callee_index)
                        leaf = callee.leaf
                        if (
                            leaf is not None
                            and cell is not None
                            and self.yieldpoint_flag == 0
                            and time + leaf[0] < next_tick
                            and len(frames) < max_frames
                        ):
                            base = len(stack) - nargs
                            value = leaf[4](stack, base)
                            if value is not LEAF_FAIL:
                                time += leaf[0]
                                steps += leaf[5]
                                del stack[base:]
                                if value is not LEAF_VOID:
                                    stack.append(value)
                                pc += 1
                                continue
                        if len(frames) >= max_frames:
                            raise self._fault(
                                StackOverflowError_, f"guest stack exceeded {max_frames} frames",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        base = len(stack) - nargs
                        new_locals = stack[base:]
                        del stack[base:]
                        if pad:
                            new_locals.extend(pad)
                        frame.pc = pc + 1  # return address
                        if pool:
                            frame = pool.pop()
                            frame.method = callee
                            frame.pc = 0
                            frame.locals = new_locals
                            frame.callsite_pc = pc
                        else:
                            frame = Frame(callee, new_locals, pc)
                        frames.append(frame)
                        method = callee
                        ops, aarg, barg, costs, faarg, fbarg, origins, ics = views
                        stack = frame.stack
                        locals_ = frame.locals
                        pc = 0
                        if prologue_yp and self.yieldpoint_flag != 0:
                            self.time = time
                            self.call_count = call_count
                            self._take_yieldpoint(PROLOGUE)
                            time = self.time
                        jrec = method.jit
                        if jrec is not None and jrec.sig == jit_sig and self.yieldpoint_flag == 0 and time < next_tick and jrec.entry0:
                            self.jit_entries += 1
                            time, steps, call_count = jrec.fn(self, frame, time, steps, call_count, next_tick)
                            pc = frame.pc
                    elif op == OP_RETURN_VAL:
                        time += return_cost
                        if epilogue_yp and self.yieldpoint_flag != 0:
                            self.time = time
                            self.call_count = call_count
                            frame.pc = pc
                            self._take_yieldpoint(EPILOGUE)
                            time = self.time
                        value = stack.pop()
                        dead = frames.pop()
                        if not frames:
                            result = value
                            break
                        del dead.stack[:]
                        dead.locals = _FREED_LOCALS
                        pool.append(dead)
                        frame = frames[-1]
                        method = frame.method
                        ops, aarg, barg, costs, faarg, fbarg, origins, ics = method.views
                        stack = frame.stack
                        locals_ = frame.locals
                        pc = frame.pc
                        stack.append(value)
                    elif op == OP_ALOAD:
                        right = stack.pop()
                        t0 = stack[-1]
                        if t0 is None:
                            raise self._fault(
                                NullPointerError, "array read on null",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        if right < 0 or right >= len(t0.elements):
                            raise self._fault(
                                ArrayBoundsError, f"index {right} out of bounds (len={len(t0.elements)})",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        stack[-1] = t0.elements[right]
                        pc += 1
                    elif op == OP_GETFIELD:
                        t0 = stack[-1]
                        if t0 is None:
                            raise self._fault(
                                NullPointerError, "field read on null",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        stack[-1] = t0.fields[aarg[pc]]
                        pc += 1
                    elif op == OP_PUTFIELD:
                        right = stack.pop()
                        t0 = stack.pop()
                        if t0 is None:
                            raise self._fault(
                                NullPointerError, "field write on null",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        t0.fields[aarg[pc]] = right
                        pc += 1
                    elif op == OP_ARRAY_LEN:
                        t0 = stack[-1]
                        if t0 is None:
                            raise self._fault(
                                NullPointerError, "len() of null",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        stack[-1] = len(t0.elements)
                        pc += 1
                    elif op == OP_ASTORE:
                        right = stack.pop()
                        t0 = stack.pop()
                        t1 = stack.pop()
                        if t1 is None:
                            raise self._fault(
                                NullPointerError, "array write on null",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        if t0 < 0 or t0 >= len(t1.elements):
                            raise self._fault(
                                ArrayBoundsError, f"index {t0} out of bounds (len={len(t1.elements)})",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        t1.elements[t0] = right
                        pc += 1
                    elif op == OP_IC_CALL_STATIC:
                        entry = ics[pc]
                        if steps >= max_steps:
                            raise self._step_limit(
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        callee = entry[0]
                        callee_index = entry[1]
                        views = entry[2]
                        pad = entry[3]
                        time += call_static_cost
                        call_count += 1
                        if hooked:
                            origin = origins[pc]
                            if origin is None:
                                caller_index = method.index
                                site_pc = pc
                            else:
                                caller_index, site_pc = origin
                            if observer is not None:
                                self.time = time
                                observer(caller_index, site_pc, callee_index)
                                time = self.time
                            if telemetry is not None:
                                telemetry.on_call(time, caller_index, site_pc, callee_index)
                        leaf = callee.leaf
                        if (
                            leaf is not None
                            and self.yieldpoint_flag == 0
                            and time + leaf[0] < next_tick
                            and len(frames) < max_frames
                        ):
                            base = len(stack) - entry[4]
                            value = leaf[4](stack, base)
                            if value is not LEAF_FAIL:
                                time += leaf[0]
                                steps += leaf[5]
                                del stack[base:]
                                if value is not LEAF_VOID:
                                    stack.append(value)
                                pc += 1
                                continue
                        if len(frames) >= max_frames:
                            raise self._fault(
                                StackOverflowError_, f"guest stack exceeded {max_frames} frames",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        base = len(stack) - entry[4]
                        new_locals = stack[base:]
                        del stack[base:]
                        if pad:
                            new_locals.extend(pad)
                        frame.pc = pc + 1  # return address
                        if pool:
                            frame = pool.pop()
                            frame.method = callee
                            frame.pc = 0
                            frame.locals = new_locals
                            frame.callsite_pc = pc
                        else:
                            frame = Frame(callee, new_locals, pc)
                        frames.append(frame)
                        method = callee
                        ops, aarg, barg, costs, faarg, fbarg, origins, ics = views
                        stack = frame.stack
                        locals_ = frame.locals
                        pc = 0
                        if prologue_yp and self.yieldpoint_flag != 0:
                            self.time = time
                            self.call_count = call_count
                            self._take_yieldpoint(PROLOGUE)
                            time = self.time
                        jrec = method.jit
                        if jrec is not None and jrec.sig == jit_sig and self.yieldpoint_flag == 0 and time < next_tick and jrec.entry0:
                            self.jit_entries += 1
                            time, steps, call_count = jrec.fn(self, frame, time, steps, call_count, next_tick)
                            pc = frame.pc
                    elif op == OP_GUARD_METHOD:
                        t0 = stack[-1]
                        stack[-1] = 1 if (t0 is not None and vtables[t0.class_index].get(aarg[pc]) == barg[pc]) else 0
                        pc += 1
                    elif op == OP_NEW_ARRAY:
                        t0 = stack[-1]
                        if t0 < 0:
                            raise self._fault(
                                VMError, "negative array length",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        time += t0
                        stack[-1] = HeapArray(t0)
                        pc += 1
                    elif op == OP_NEW:
                        stack.append(HeapObject(aarg[pc], field_defaults[aarg[pc]]))
                        pc += 1
                    elif op == OP_PRINT:
                        self.output.append(stack.pop())
                        pc += 1
                    elif op == OP_IS_EXACT:
                        t0 = stack[-1]
                        stack[-1] = 1 if (t0 is not None and t0.class_index == aarg[pc]) else 0
                        pc += 1
                    elif op == OP_NOP:
                        pc += 1
                    else:
                        break
        else:
            # ---- superinstruction path ----
            cost = costs[pc]
            if time + cost >= next_tick:
                # A tick lands inside this group: de-quicken so it
                # fires on exactly the instruction the unfused
                # interpreter would fire it on.  (The group's
                # cumulative charge crosses the boundary at its last
                # nonzero-cost component at the latest, so the tick
                # — and the view restore — always happens inside
                # the group, before any call or return.)
                dequickened = True
                deopts += 1
                ops = method.ops
                costs = method.costs
                continue
            time += cost
            fused_n += 1
            if op < 113:
                if op < 103:
                    if op == F_LOAD_PUSH_ADD_STORE:
                        steps += 4
                        a1, a3 = fbarg[pc]
                        locals_[a3] = locals_[faarg[pc]] + a1
                        pc += 4
                    elif op == F_LOAD_LOAD:
                        steps += 2
                        stack.append(locals_[faarg[pc]])
                        stack.append(locals_[fbarg[pc]])
                        pc += 2
                    elif op == F_LOAD_GETFIELD_LOAD:
                        steps += 3
                        a1, a2 = fbarg[pc]
                        t0 = locals_[faarg[pc]]
                        if t0 is None:
                            fault = NullPointerError, "field read on null", 1
                            break
                        stack.append(t0.fields[a1])
                        stack.append(locals_[a2])
                        pc += 3
                    else:
                        break
                else:
                    if op < 108:
                        if op == F_LOAD_PUSH:
                            steps += 2
                            stack.append(locals_[faarg[pc]])
                            stack.append(fbarg[pc])
                            pc += 2
                        elif op == F_ADD_PUSH_MOD_STORE:
                            steps += 4
                            right = stack.pop()
                            t0 = faarg[pc]
                            t1 = (stack.pop() + right)
                            if t0 == 0:
                                fault = DivisionByZeroError, "division by zero", 2
                                break
                            t2 = abs(t1) // abs(t0)
                            if (t1 < 0) != (t0 < 0): t2 = -t2
                            locals_[fbarg[pc]] = t1 - t2 * t0
                            pc += 4
                        elif op == F_LOAD_LOAD_GETFIELD:
                            steps += 3
                            a1, a2 = fbarg[pc]
                            t0 = locals_[a1]
                            if t0 is None:
                                fault = NullPointerError, "field read on null", 2
                                break
                            t1 = t0.fields[a2]
                            stack.append(locals_[faarg[pc]])
                            stack.append(t1)
                            pc += 3
                        elif op == F_LOAD_GETFIELD_MOD_ALOAD_GETFIELD_PUSH_LT_JIF:
                            steps += 8
                            a1, a4, a5, a7 = fbarg[pc]
                            t0 = locals_[faarg[pc]]
                            if t0 is None:
                                fault = NullPointerError, "field read on null", 1
                                break
                            t1 = t0.fields[a1]
                            right = stack.pop()
                            if t1 == 0:
                                fault = DivisionByZeroError, "division by zero", 2
                                break
                            t2 = abs(right) // abs(t1)
                            if (right < 0) != (t1 < 0): t2 = -t2
                            t3 = right - t2 * t1
                            t4 = stack.pop()
                            if t4 is None:
                                fault = NullPointerError, "array read on null", 3
                                break
                            if t3 < 0 or t3 >= len(t4.elements):
                                fault = ArrayBoundsError, f"index {t3} out of bounds (len={len(t4.elements)})", 3
                                break
                            t5 = t4.elements[t3]
                            if t5 is None:
                                fault = NullPointerError, "field read on null", 4
                                break
                            t6 = t5.fields[a4]
                            if t6 >= a5:
                                if a7 <= pc + 7 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 7
                                    )
                                pc = a7
                                continue
                            pc += 8
                        elif op == F_LT_JIF:
                            steps += 2
                            right = stack.pop()
                            if stack.pop() >= right:
                                target = faarg[pc]
                                if target <= pc + 1 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 1
                                    )
                                pc = target
                                continue
                            pc += 2
                        else:
                            break
                    else:
                        if op == F_LOAD_LOAD_LT_JIF:
                            steps += 4
                            a1, a3 = fbarg[pc]
                            if locals_[faarg[pc]] >= locals_[a1]:
                                if a3 <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = a3
                                continue
                            pc += 4
                        elif op == F_LOAD_GETFIELD:
                            steps += 2
                            t0 = locals_[faarg[pc]]
                            if t0 is None:
                                fault = NullPointerError, "field read on null", 1
                                break
                            stack.append(t0.fields[fbarg[pc]])
                            pc += 2
                        elif op == F_LOAD_PUSH_MUL_PUSH_ADD_PUSH_MOD_STORE:
                            steps += 8
                            a1, a3, a5, a7 = fbarg[pc]
                            t0 = ((locals_[faarg[pc]] * a1) + a3)
                            if a5 == 0:
                                fault = DivisionByZeroError, "division by zero", 6
                                break
                            t1 = abs(t0) // abs(a5)
                            if (t0 < 0) != (a5 < 0): t1 = -t1
                            locals_[a7] = t0 - t1 * a5
                            pc += 8
                        elif op == F_ALOAD_STORE_LOAD:
                            steps += 3
                            right = stack.pop()
                            t0 = stack[-1]
                            if t0 is None:
                                fault = NullPointerError, "array read on null", 0
                                break
                            if right < 0 or right >= len(t0.elements):
                                fault = ArrayBoundsError, f"index {right} out of bounds (len={len(t0.elements)})", 0
                                break
                            locals_[faarg[pc]] = t0.elements[right]
                            stack[-1] = locals_[fbarg[pc]]
                            pc += 3
                        elif op == F_PUSH_SUB_ALOAD_ASTORE_LOAD_PUSH_SUB_STORE:
                            steps += 8
                            a4, a5, a7 = fbarg[pc]
                            right = stack.pop()
                            t0 = (right - faarg[pc])
                            t1 = stack.pop()
                            if t1 is None:
                                fault = NullPointerError, "array read on null", 2
                                break
                            if t0 < 0 or t0 >= len(t1.elements):
                                fault = ArrayBoundsError, f"index {t0} out of bounds (len={len(t1.elements)})", 2
                                break
                            t2 = t1.elements[t0]
                            t3 = stack.pop()
                            t4 = stack.pop()
                            if t4 is None:
                                fault = NullPointerError, "array write on null", 3
                                break
                            if t3 < 0 or t3 >= len(t4.elements):
                                fault = ArrayBoundsError, f"index {t3} out of bounds (len={len(t4.elements)})", 3
                                break
                            t4.elements[t3] = t2
                            locals_[a7] = locals_[a4] - a5
                            pc += 8
                        else:
                            break
            else:
                if op < 129:
                    if op < 121:
                        if op < 117:
                            if op == F_LOAD_PUSH_MOD:
                                steps += 3
                                t0 = fbarg[pc]
                                t1 = locals_[faarg[pc]]
                                if t0 == 0:
                                    fault = DivisionByZeroError, "division by zero", 2
                                    break
                                t2 = abs(t1) // abs(t0)
                                if (t1 < 0) != (t0 < 0): t2 = -t2
                                stack.append(t1 - t2 * t0)
                                pc += 3
                            elif op == F_LOAD_GETFIELD_LOAD_GETFIELD:
                                steps += 4
                                a1, a2, a3 = fbarg[pc]
                                t0 = locals_[faarg[pc]]
                                if t0 is None:
                                    fault = NullPointerError, "field read on null", 1
                                    break
                                t1 = t0.fields[a1]
                                t2 = locals_[a2]
                                if t2 is None:
                                    fault = NullPointerError, "field read on null", 3
                                    break
                                t3 = t2.fields[a3]
                                stack.append(t1)
                                stack.append(t3)
                                pc += 4
                            elif op == F_ALOAD_MUL_PUSH_DIV_ADD_STORE:
                                steps += 6
                                right = stack.pop()
                                t0 = stack.pop()
                                if t0 is None:
                                    fault = NullPointerError, "array read on null", 0
                                    break
                                if right < 0 or right >= len(t0.elements):
                                    fault = ArrayBoundsError, f"index {right} out of bounds (len={len(t0.elements)})", 0
                                    break
                                t1 = t0.elements[right]
                                t2 = stack.pop()
                                t3 = faarg[pc]
                                t4 = (t2 * t1)
                                if t3 == 0:
                                    fault = DivisionByZeroError, "division by zero", 3
                                    break
                                t5 = abs(t4) // abs(t3)
                                if (t4 < 0) != (t3 < 0): t5 = -t5
                                locals_[fbarg[pc]] = stack.pop() + t5
                                pc += 6
                            elif op == F_MUL_LOAD_ADD_LOAD_ADD_PUSH_MOD_STORE:
                                steps += 8
                                a3, a5, a7 = fbarg[pc]
                                right = stack.pop()
                                t0 = (((stack.pop() * right) + locals_[faarg[pc]]) + locals_[a3])
                                if a5 == 0:
                                    fault = DivisionByZeroError, "division by zero", 6
                                    break
                                t1 = abs(t0) // abs(a5)
                                if (t0 < 0) != (a5 < 0): t1 = -t1
                                locals_[a7] = t0 - t1 * a5
                                pc += 8
                            else:
                                break
                        else:
                            if op == F_LOAD_LOAD_GETFIELD_LT_JIF:
                                steps += 5
                                a1, a2, a4 = fbarg[pc]
                                t0 = locals_[a1]
                                if t0 is None:
                                    fault = NullPointerError, "field read on null", 2
                                    break
                                t1 = t0.fields[a2]
                                if locals_[faarg[pc]] >= t1:
                                    if a4 <= pc + 4 and steps >= max_steps:
                                        raise self._step_limit(
                                            time, steps, call_count, fused_n, deopts, frame, method, pc + 4
                                        )
                                    pc = a4
                                    continue
                                pc += 5
                            elif op == F_ASTORE_LOAD_PUSH_ADD_STORE:
                                steps += 5
                                a2, a4 = fbarg[pc]
                                right = stack.pop()
                                t0 = stack.pop()
                                t1 = stack.pop()
                                if t1 is None:
                                    fault = NullPointerError, "array write on null", 0
                                    break
                                if t0 < 0 or t0 >= len(t1.elements):
                                    fault = ArrayBoundsError, f"index {t0} out of bounds (len={len(t1.elements)})", 0
                                    break
                                t1.elements[t0] = right
                                locals_[a4] = locals_[faarg[pc]] + a2
                                pc += 5
                            elif op == F_STORE_DUP_GUARD_METHOD_JIF:
                                steps += 4
                                a2, b2, a3 = fbarg[pc]
                                locals_[faarg[pc]] = stack.pop()
                                t0 = stack[-1]
                                if not (t0 is not None and vtables[t0.class_index].get(a2) == b2):
                                    if a3 <= pc + 3 and steps >= max_steps:
                                        raise self._step_limit(
                                            time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                        )
                                    pc = a3
                                    continue
                                pc += 4
                            elif op == F_GE_DUP_JIF:
                                steps += 3
                                right = stack.pop()
                                t0 = (1 if (stack[-1] >= right) else 0)
                                stack[-1] = t0
                                if t0 == 0:
                                    target = faarg[pc]
                                    if target <= pc + 2 and steps >= max_steps:
                                        raise self._step_limit(
                                            time, steps, call_count, fused_n, deopts, frame, method, pc + 2
                                        )
                                    pc = target
                                    continue
                                pc += 3
                            else:
                                break
                    else:
                        if op < 125:
                            if op == F_LOAD_GETFIELD_LOAD_ALOAD_LOAD_LOAD:
                                steps += 6
                                a1, a2, a4, a5 = fbarg[pc]
                                t0 = locals_[faarg[pc]]
                                if t0 is None:
                                    fault = NullPointerError, "field read on null", 1
                                    break
                                t1 = t0.fields[a1]
                                t2 = locals_[a2]
                                if t1 is None:
                                    fault = NullPointerError, "array read on null", 3
                                    break
                                if t2 < 0 or t2 >= len(t1.elements):
                                    fault = ArrayBoundsError, f"index {t2} out of bounds (len={len(t1.elements)})", 3
                                    break
                                stack.append(t1.elements[t2])
                                stack.append(locals_[a4])
                                stack.append(locals_[a5])
                                pc += 6
                            elif op == F_PUSH_MOD:
                                steps += 2
                                t0 = faarg[pc]
                                t1 = stack[-1]
                                if t0 == 0:
                                    fault = DivisionByZeroError, "division by zero", 1
                                    break
                                t2 = abs(t1) // abs(t0)
                                if (t1 < 0) != (t0 < 0): t2 = -t2
                                stack[-1] = t1 - t2 * t0
                                pc += 2
                            elif op == F_LOAD_LOAD_GETFIELD_PUSH_ADD_PUTFIELD:
                                steps += 6
                                a1, a2, a3, a5 = fbarg[pc]
                                t0 = locals_[a1]
                                if t0 is None:
                                    fault = NullPointerError, "field read on null", 2
                                    break
                                t1 = t0.fields[a2]
                                t2 = locals_[faarg[pc]]
                                if t2 is None:
                                    fault = NullPointerError, "field write on null", 5
                                    break
                                t2.fields[a5] = (t1 + a3)
                                pc += 6
                            elif op == F_LOAD_LOAD_GETFIELD_LOAD_LOAD_SUB_ALOAD_LOAD:
                                steps += 8
                                a1, a2, a3, a4, a7 = fbarg[pc]
                                t0 = locals_[a1]
                                if t0 is None:
                                    fault = NullPointerError, "field read on null", 2
                                    break
                                t1 = t0.fields[a2]
                                t2 = (locals_[a3] - locals_[a4])
                                if t1 is None:
                                    fault = NullPointerError, "array read on null", 6
                                    break
                                if t2 < 0 or t2 >= len(t1.elements):
                                    fault = ArrayBoundsError, f"index {t2} out of bounds (len={len(t1.elements)})", 6
                                    break
                                t3 = t1.elements[t2]
                                stack.append(locals_[faarg[pc]])
                                stack.append(t3)
                                stack.append(locals_[a7])
                                pc += 8
                            else:
                                break
                        else:
                            if op == F_LOAD_PUSH_LT_JIF:
                                steps += 4
                                a1, a3 = fbarg[pc]
                                if locals_[faarg[pc]] >= a1:
                                    if a3 <= pc + 3 and steps >= max_steps:
                                        raise self._step_limit(
                                            time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                        )
                                    pc = a3
                                    continue
                                pc += 4
                            elif op == F_LT_DUP_JIF:
                                steps += 3
                                right = stack.pop()
                                t0 = (1 if (stack[-1] < right) else 0)
                                stack[-1] = t0
                                if t0 == 0:
                                    target = faarg[pc]
                                    if target <= pc + 2 and steps >= max_steps:
                                        raise self._step_limit(
                                            time, steps, call_count, fused_n, deopts, frame, method, pc + 2
                                        )
                                    pc = target
                                    continue
                                pc += 3
                            elif op == F_LOAD_GETFIELD_LOAD_ALOAD_STORE_LOAD_LOAD:
                                steps += 7
                                a1, a2, a4, a5, a6 = fbarg[pc]
                                t0 = locals_[faarg[pc]]
                                if t0 is None:
                                    fault = NullPointerError, "field read on null", 1
                                    break
                                t1 = t0.fields[a1]
                                t2 = locals_[a2]
                                if t1 is None:
                                    fault = NullPointerError, "array read on null", 3
                                    break
                                if t2 < 0 or t2 >= len(t1.elements):
                                    fault = ArrayBoundsError, f"index {t2} out of bounds (len={len(t1.elements)})", 3
                                    break
                                locals_[a4] = t1.elements[t2]
                                stack.append(locals_[a5])
                                stack.append(locals_[a6])
                                pc += 7
                            elif op == F_LOAD_GETFIELD_PUSH_NULL_EQ_JIF:
                                steps += 5
                                a1, a4 = fbarg[pc]
                                t0 = locals_[faarg[pc]]
                                if t0 is None:
                                    fault = NullPointerError, "field read on null", 1
                                    break
                                t1 = t0.fields[a1]
                                if t1 is not None:
                                    if a4 <= pc + 4 and steps >= max_steps:
                                        raise self._step_limit(
                                            time, steps, call_count, fused_n, deopts, frame, method, pc + 4
                                        )
                                    pc = a4
                                    continue
                                pc += 5
                            else:
                                break
                else:
                    if op < 143:
                        if op < 135:
                            if op < 132:
                                if op == F_LOAD_LOAD_GETFIELD_LOAD_ALOAD_LOAD_GETFIELD_LOAD:
                                    steps += 8
                                    a1, a2, a3, a5, a6, a7 = fbarg[pc]
                                    t0 = locals_[a1]
                                    if t0 is None:
                                        fault = NullPointerError, "field read on null", 2
                                        break
                                    t1 = t0.fields[a2]
                                    t2 = locals_[a3]
                                    if t1 is None:
                                        fault = NullPointerError, "array read on null", 4
                                        break
                                    if t2 < 0 or t2 >= len(t1.elements):
                                        fault = ArrayBoundsError, f"index {t2} out of bounds (len={len(t1.elements)})", 4
                                        break
                                    t3 = t1.elements[t2]
                                    t4 = locals_[a5]
                                    if t4 is None:
                                        fault = NullPointerError, "field read on null", 6
                                        break
                                    t5 = t4.fields[a6]
                                    stack.append(locals_[faarg[pc]])
                                    stack.append(t3)
                                    stack.append(t5)
                                    stack.append(locals_[a7])
                                    pc += 8
                                elif op == F_LOAD_GETFIELD_LOAD_NE_JIF:
                                    steps += 5
                                    a1, a2, a4 = fbarg[pc]
                                    t0 = locals_[faarg[pc]]
                                    if t0 is None:
                                        fault = NullPointerError, "field read on null", 1
                                        break
                                    t1 = t0.fields[a1]
                                    t2 = locals_[a2]
                                    if (t1 == t2) if (isinstance(t1, int) and isinstance(t2, int)) else (t1 is t2):
                                        if a4 <= pc + 4 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 4
                                            )
                                        pc = a4
                                        continue
                                    pc += 5
                                elif op == F_STORE_LOAD_LOAD_GETFIELD_NE_JIF:
                                    steps += 6
                                    a1, a2, a3, a5 = fbarg[pc]
                                    locals_[faarg[pc]] = stack.pop()
                                    t0 = locals_[a2]
                                    if t0 is None:
                                        fault = NullPointerError, "field read on null", 3
                                        break
                                    t1 = t0.fields[a3]
                                    t2 = locals_[a1]
                                    if (t2 == t1) if (isinstance(t2, int) and isinstance(t1, int)) else (t2 is t1):
                                        if a5 <= pc + 5 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 5
                                            )
                                        pc = a5
                                        continue
                                    pc += 6
                                else:
                                    break
                            else:
                                if op == F_POP_LOAD_LOAD_LT:
                                    steps += 4
                                    stack[-1] = 1 if (locals_[faarg[pc]] < locals_[fbarg[pc]]) else 0
                                    pc += 4
                                elif op == F_PUSH_EQ_JIF:
                                    steps += 3
                                    t0 = faarg[pc]
                                    t1 = stack.pop()
                                    if not isinstance(t1, int) or t1 != t0:
                                        target = fbarg[pc]
                                        if target <= pc + 2 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 2
                                            )
                                        pc = target
                                        continue
                                    pc += 3
                                elif op == F_POP_LOAD_GETFIELD_LOAD_GETFIELD_ALOAD_PUSH:
                                    steps += 7
                                    a2, a3, a4, a6 = fbarg[pc]
                                    t0 = locals_[faarg[pc]]
                                    if t0 is None:
                                        fault = NullPointerError, "field read on null", 2
                                        break
                                    t1 = t0.fields[a2]
                                    t2 = locals_[a3]
                                    if t2 is None:
                                        fault = NullPointerError, "field read on null", 4
                                        break
                                    t3 = t2.fields[a4]
                                    if t1 is None:
                                        fault = NullPointerError, "array read on null", 5
                                        break
                                    if t3 < 0 or t3 >= len(t1.elements):
                                        fault = ArrayBoundsError, f"index {t3} out of bounds (len={len(t1.elements)})", 5
                                        break
                                    stack[-1] = t1.elements[t3]
                                    stack.append(a6)
                                    pc += 7
                                else:
                                    break
                        else:
                            if op < 139:
                                if op == F_LOAD_PUSH_GT_JIF:
                                    steps += 4
                                    a1, a3 = fbarg[pc]
                                    if locals_[faarg[pc]] <= a1:
                                        if a3 <= pc + 3 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                            )
                                        pc = a3
                                        continue
                                    pc += 4
                                elif op == F_LOAD_LOAD_PUSH_MOD_ADD:
                                    steps += 5
                                    a1, a2 = fbarg[pc]
                                    t0 = locals_[a1]
                                    if a2 == 0:
                                        fault = DivisionByZeroError, "division by zero", 3
                                        break
                                    t1 = abs(t0) // abs(a2)
                                    if (t0 < 0) != (a2 < 0): t1 = -t1
                                    t2 = t0 - t1 * a2
                                    stack.append(locals_[faarg[pc]] + t2)
                                    pc += 5
                                elif op == F_ALOAD_STORE_LOAD_LOAD_GE_DUP_JIF:
                                    steps += 7
                                    a2, a3, a6 = fbarg[pc]
                                    right = stack.pop()
                                    t0 = stack[-1]
                                    if t0 is None:
                                        fault = NullPointerError, "array read on null", 0
                                        break
                                    if right < 0 or right >= len(t0.elements):
                                        fault = ArrayBoundsError, f"index {right} out of bounds (len={len(t0.elements)})", 0
                                        break
                                    locals_[faarg[pc]] = t0.elements[right]
                                    t2 = (1 if (locals_[a2] >= locals_[a3]) else 0)
                                    stack[-1] = t2
                                    if t2 == 0:
                                        if a6 <= pc + 6 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 6
                                            )
                                        pc = a6
                                        continue
                                    pc += 7
                                elif op == F_LOAD_SUB_ALOAD_ASTORE_LOAD_LOAD_SUB_STORE:
                                    steps += 8
                                    a4, a5, a7 = fbarg[pc]
                                    right = stack.pop()
                                    t0 = (right - locals_[faarg[pc]])
                                    t1 = stack.pop()
                                    if t1 is None:
                                        fault = NullPointerError, "array read on null", 2
                                        break
                                    if t0 < 0 or t0 >= len(t1.elements):
                                        fault = ArrayBoundsError, f"index {t0} out of bounds (len={len(t1.elements)})", 2
                                        break
                                    t2 = t1.elements[t0]
                                    t3 = stack.pop()
                                    t4 = stack.pop()
                                    if t4 is None:
                                        fault = NullPointerError, "array write on null", 3
                                        break
                                    if t3 < 0 or t3 >= len(t4.elements):
                                        fault = ArrayBoundsError, f"index {t3} out of bounds (len={len(t4.elements)})", 3
                                        break
                                    t4.elements[t3] = t2
                                    locals_[a7] = locals_[a4] - locals_[a5]
                                    pc += 8
                                else:
                                    break
                            else:
                                if op == F_LOAD_LOAD_PUTFIELD:
                                    steps += 3
                                    a1, a2 = fbarg[pc]
                                    t0 = locals_[faarg[pc]]
                                    if t0 is None:
                                        fault = NullPointerError, "field write on null", 2
                                        break
                                    t0.fields[a2] = locals_[a1]
                                    pc += 3
                                elif op == F_POP_LOAD_LOAD_PUSH_SUB_LT:
                                    steps += 6
                                    a2, a3 = fbarg[pc]
                                    stack[-1] = 1 if (locals_[faarg[pc]] < (locals_[a2] - a3)) else 0
                                    pc += 6
                                elif op == F_LOAD_LOAD_PUSH_LOAD_LOAD_ADD_PUSH_MOD:
                                    steps += 8
                                    a1, a2, a3, a4, a6 = fbarg[pc]
                                    t0 = (locals_[a3] + locals_[a4])
                                    if a6 == 0:
                                        fault = DivisionByZeroError, "division by zero", 7
                                        break
                                    t1 = abs(t0) // abs(a6)
                                    if (t0 < 0) != (a6 < 0): t1 = -t1
                                    t2 = t0 - t1 * a6
                                    stack.append(locals_[faarg[pc]])
                                    stack.append(locals_[a1])
                                    stack.append(a2)
                                    stack.append(t2)
                                    pc += 8
                                elif op == F_STORE_STORE_STORE_LOAD_GETFIELD_JIF:
                                    steps += 6
                                    a1, a2, a3, a4, a5 = fbarg[pc]
                                    locals_[faarg[pc]] = stack.pop()
                                    locals_[a1] = stack.pop()
                                    locals_[a2] = stack.pop()
                                    t1 = locals_[a3]
                                    if t1 is None:
                                        fault = NullPointerError, "field read on null", 4
                                        break
                                    t2 = t1.fields[a4]
                                    if t2 == 0:
                                        if a5 <= pc + 5 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 5
                                            )
                                        pc = a5
                                        continue
                                    pc += 6
                                else:
                                    break
                    else:
                        if op < 151:
                            if op < 148:
                                if op == F_LOAD_PUSH_MOD_ASTORE_LOAD_PUSH_ADD_STORE:
                                    steps += 8
                                    a1, a4, a5, a7 = fbarg[pc]
                                    t0 = locals_[faarg[pc]]
                                    if a1 == 0:
                                        fault = DivisionByZeroError, "division by zero", 2
                                        break
                                    t1 = abs(t0) // abs(a1)
                                    if (t0 < 0) != (a1 < 0): t1 = -t1
                                    t2 = t0 - t1 * a1
                                    right = stack.pop()
                                    t3 = stack.pop()
                                    if t3 is None:
                                        fault = NullPointerError, "array write on null", 3
                                        break
                                    if right < 0 or right >= len(t3.elements):
                                        fault = ArrayBoundsError, f"index {right} out of bounds (len={len(t3.elements)})", 3
                                        break
                                    t3.elements[right] = t2
                                    locals_[a7] = locals_[a4] + a5
                                    pc += 8
                                elif op == F_LOAD_LOAD_ALOAD_ASTORE_LOAD_PUSH_ADD_STORE:
                                    steps += 8
                                    a1, a4, a5, a7 = fbarg[pc]
                                    t0 = locals_[a1]
                                    t1 = locals_[faarg[pc]]
                                    if t1 is None:
                                        fault = NullPointerError, "array read on null", 2
                                        break
                                    if t0 < 0 or t0 >= len(t1.elements):
                                        fault = ArrayBoundsError, f"index {t0} out of bounds (len={len(t1.elements)})", 2
                                        break
                                    t2 = t1.elements[t0]
                                    right = stack.pop()
                                    t3 = stack.pop()
                                    if t3 is None:
                                        fault = NullPointerError, "array write on null", 3
                                        break
                                    if right < 0 or right >= len(t3.elements):
                                        fault = ArrayBoundsError, f"index {right} out of bounds (len={len(t3.elements)})", 3
                                        break
                                    t3.elements[right] = t2
                                    locals_[a7] = locals_[a4] + a5
                                    pc += 8
                                elif op == F_LOAD_PUSH_MUL_LOAD_GETFIELD_LOAD_GETFIELD_ALOAD:
                                    steps += 8
                                    a1, a3, a4, a5, a6 = fbarg[pc]
                                    t0 = locals_[a3]
                                    if t0 is None:
                                        fault = NullPointerError, "field read on null", 4
                                        break
                                    t1 = t0.fields[a4]
                                    t2 = locals_[a5]
                                    if t2 is None:
                                        fault = NullPointerError, "field read on null", 6
                                        break
                                    t3 = t2.fields[a6]
                                    if t1 is None:
                                        fault = NullPointerError, "array read on null", 7
                                        break
                                    if t3 < 0 or t3 >= len(t1.elements):
                                        fault = ArrayBoundsError, f"index {t3} out of bounds (len={len(t1.elements)})", 7
                                        break
                                    t4 = t1.elements[t3]
                                    stack.append(locals_[faarg[pc]] * a1)
                                    stack.append(t4)
                                    pc += 8
                                elif op == F_ALOAD_STORE_LOAD_LOAD_GETFIELD_PUSH_ADD_PUTFIELD:
                                    steps += 8
                                    a2, a3, a4, a5, a7 = fbarg[pc]
                                    right = stack.pop()
                                    t0 = stack.pop()
                                    if t0 is None:
                                        fault = NullPointerError, "array read on null", 0
                                        break
                                    if right < 0 or right >= len(t0.elements):
                                        fault = ArrayBoundsError, f"index {right} out of bounds (len={len(t0.elements)})", 0
                                        break
                                    locals_[faarg[pc]] = t0.elements[right]
                                    t2 = locals_[a3]
                                    if t2 is None:
                                        fault = NullPointerError, "field read on null", 4
                                        break
                                    t3 = t2.fields[a4]
                                    t4 = locals_[a2]
                                    if t4 is None:
                                        fault = NullPointerError, "field write on null", 7
                                        break
                                    t4.fields[a7] = (t3 + a5)
                                    pc += 8
                                elif op == F_STORE_LOAD_LOAD_MUL_PUSH_DIV_LOAD_LOAD:
                                    steps += 8
                                    a1, a2, a4, a6, a7 = fbarg[pc]
                                    locals_[faarg[pc]] = stack[-1]
                                    t0 = (locals_[a1] * locals_[a2])
                                    if a4 == 0:
                                        fault = DivisionByZeroError, "division by zero", 5
                                        break
                                    t1 = abs(t0) // abs(a4)
                                    if (t0 < 0) != (a4 < 0): t1 = -t1
                                    stack[-1] = t1
                                    stack.append(locals_[a6])
                                    stack.append(locals_[a7])
                                    pc += 8
                                else:
                                    break
                            else:
                                if op == F_PUSH_STORE:
                                    steps += 2
                                    locals_[fbarg[pc]] = faarg[pc]
                                    pc += 2
                                elif op == F_NEW_DUP:
                                    steps += 2
                                    t0 = HeapObject(faarg[pc], field_defaults[faarg[pc]])
                                    stack.append(t0)
                                    stack.append(t0)
                                    pc += 2
                                elif op == F_MUL_LOAD_ADD_PUSH_MOD_STORE:
                                    steps += 6
                                    a3, a5 = fbarg[pc]
                                    right = stack.pop()
                                    t0 = ((stack.pop() * right) + locals_[faarg[pc]])
                                    if a3 == 0:
                                        fault = DivisionByZeroError, "division by zero", 4
                                        break
                                    t1 = abs(t0) // abs(a3)
                                    if (t0 < 0) != (a3 < 0): t1 = -t1
                                    locals_[a5] = t0 - t1 * a3
                                    pc += 6
                                else:
                                    break
                        else:
                            if op < 155:
                                if op == F_LOAD_GETFIELD_LOAD_LOAD_GETFIELD_LOAD:
                                    steps += 6
                                    a1, a2, a3, a4, a5 = fbarg[pc]
                                    t0 = locals_[faarg[pc]]
                                    if t0 is None:
                                        fault = NullPointerError, "field read on null", 1
                                        break
                                    t1 = t0.fields[a1]
                                    t2 = locals_[a3]
                                    if t2 is None:
                                        fault = NullPointerError, "field read on null", 4
                                        break
                                    t3 = t2.fields[a4]
                                    stack.append(t1)
                                    stack.append(locals_[a2])
                                    stack.append(t3)
                                    stack.append(locals_[a5])
                                    pc += 6
                                elif op == F_LOAD_GETFIELD_LOAD_GETFIELD_SUB:
                                    steps += 5
                                    a1, a2, a3 = fbarg[pc]
                                    t0 = locals_[faarg[pc]]
                                    if t0 is None:
                                        fault = NullPointerError, "field read on null", 1
                                        break
                                    t1 = t0.fields[a1]
                                    t2 = locals_[a2]
                                    if t2 is None:
                                        fault = NullPointerError, "field read on null", 3
                                        break
                                    t3 = t2.fields[a3]
                                    stack.append(t1 - t3)
                                    pc += 5
                                elif op == F_LOAD_LOAD_GT_JIF:
                                    steps += 4
                                    a1, a3 = fbarg[pc]
                                    if locals_[faarg[pc]] <= locals_[a1]:
                                        if a3 <= pc + 3 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                            )
                                        pc = a3
                                        continue
                                    pc += 4
                                elif op == F_STORE_LOAD_PUSH_GE_JIF:
                                    steps += 5
                                    a1, a2, a4 = fbarg[pc]
                                    locals_[faarg[pc]] = stack.pop()
                                    if locals_[a1] < a2:
                                        if a4 <= pc + 4 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 4
                                            )
                                        pc = a4
                                        continue
                                    pc += 5
                                else:
                                    break
                            else:
                                if op == F_LOAD_GETFIELD_STORE:
                                    steps += 3
                                    a1, a2 = fbarg[pc]
                                    t0 = locals_[faarg[pc]]
                                    if t0 is None:
                                        fault = NullPointerError, "field read on null", 1
                                        break
                                    locals_[a2] = t0.fields[a1]
                                    pc += 3
                                elif op == F_LOAD_PUSH_EQ_JIF:
                                    steps += 4
                                    a1, a3 = fbarg[pc]
                                    t0 = locals_[faarg[pc]]
                                    if not isinstance(t0, int) or t0 != a1:
                                        if a3 <= pc + 3 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                            )
                                        pc = a3
                                        continue
                                    pc += 4
                                elif op == F_LOAD_LOAD_SUB_STORE_LOAD_PUSH_LT_JIF:
                                    steps += 8
                                    a1, a3, a4, a5, a7 = fbarg[pc]
                                    locals_[a3] = locals_[faarg[pc]] - locals_[a1]
                                    if locals_[a4] >= a5:
                                        if a7 <= pc + 7 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 7
                                            )
                                        pc = a7
                                        continue
                                    pc += 8
                                elif op == F_LOAD_GETFIELD_LOAD_GETFIELD_ARRAY_LEN_GE_JIF:
                                    steps += 7
                                    a1, a2, a3, a6 = fbarg[pc]
                                    t0 = locals_[faarg[pc]]
                                    if t0 is None:
                                        fault = NullPointerError, "field read on null", 1
                                        break
                                    t1 = t0.fields[a1]
                                    t2 = locals_[a2]
                                    if t2 is None:
                                        fault = NullPointerError, "field read on null", 3
                                        break
                                    t3 = t2.fields[a3]
                                    if t3 is None:
                                        fault = NullPointerError, "len() of null", 4
                                        break
                                    if t1 < len(t3.elements):
                                        if a6 <= pc + 6 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 6
                                            )
                                        pc = a6
                                        continue
                                    pc += 7
                                elif op == F_STORE_LOAD_PUSH_LE_DUP_JUMP_IF_TRUE:
                                    steps += 6
                                    a1, a2, a5 = fbarg[pc]
                                    locals_[faarg[pc]] = stack[-1]
                                    t0 = (1 if (locals_[a1] <= a2) else 0)
                                    stack[-1] = t0
                                    if t0 != 0:
                                        if a5 <= pc + 5 and steps >= max_steps:
                                            raise self._step_limit(
                                                time, steps, call_count, fused_n, deopts, frame, method, pc + 5
                                            )
                                        pc = a5
                                        continue
                                    pc += 6
                                else:
                                    break

    if frames:
        # A tree leaf's ``else: break`` (no arm owns ``op``), or a
        # superinstruction's guest fault.
        if op < FUSE_BASE:
            raise self._fault(
                VMError, f"unknown opcode {op}",
                time, steps, call_count, fused_n, deopts, frame, method, pc
            )
        if fault is None:
            raise self._fault(
                VMError, f"unknown superinstruction {op}",
                time, steps, call_count, fused_n, deopts, frame, method, pc
            )
        error, message, off = fault
        for cost in costs[pc + off + 1 : pc + fusion.FUSED_ARITY[op]]:
            time -= cost
            steps -= 1
        raise self._fault(
            error, message,
            time, steps, call_count, fused_n, deopts, frame, method, pc + off
        )
    self.time = time
    self.steps = steps
    self.call_count = call_count
    self.fused_dispatches = fused_n
    self.fusion_deopts = deopts
    return result
