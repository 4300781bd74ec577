"""Generated dispatch loop for the Mini VM interpreter — DO NOT EDIT.

This file is produced from the declarative opcode specs
(repro.bytecode.opcodes.OPCODE_SPECS), the superinstruction layout table
(repro.vm.fuse.FUSED_LAYOUT), and the inline-cache entry layouts
(repro.vm.ic) by

    python -m repro.vm.dispatchgen --write

Hand edits are overwritten on the next regeneration, and the spec-smoke
CI job fails if this file differs from what the specs produce.  To
change dispatch behavior, edit the specs or the generator templates and
regenerate; see docs/OPCODES.md.

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
    cache_methods = self.code_cache.methods
    vtables = self.vtables
    field_defaults = self.class_field_defaults
    observer = self.call_observer
    telemetry = self.telemetry
    hooked = observer is not None or telemetry is not None
    paths = self.path_tracker
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
    POLY_LIMIT = icache.POLY_LIMIT
    locals_pad = icache.locals_pad
    flat_vtables = self.flat_vtables

    # Superinstruction constants (see repro.vm.fuse).
    FUSE_BASE = fusion.FUSE_BASE
    F_LOAD_LOAD = fusion.F_LOAD_LOAD
    F_LOAD_PUSH = fusion.F_LOAD_PUSH
    F_LOAD_ADD = fusion.F_LOAD_ADD
    F_LOAD_SUB = fusion.F_LOAD_SUB
    F_LOAD_MUL = fusion.F_LOAD_MUL
    F_LOAD_GETFIELD = fusion.F_LOAD_GETFIELD
    F_PUSH_STORE = fusion.F_PUSH_STORE
    F_PUSH_ADD = fusion.F_PUSH_ADD
    F_PUSH_SUB = fusion.F_PUSH_SUB
    F_PUSH_MUL = fusion.F_PUSH_MUL
    F_PUSH_MOD = fusion.F_PUSH_MOD
    F_STORE_LOAD = fusion.F_STORE_LOAD
    F_LT_JIF = fusion.F_LT_JIF
    F_LE_JIF = fusion.F_LE_JIF
    F_GT_JIF = fusion.F_GT_JIF
    F_GE_JIF = fusion.F_GE_JIF
    F_EQ_JIF = fusion.F_EQ_JIF
    F_NE_JIF = fusion.F_NE_JIF
    F_LOAD_RET = fusion.F_LOAD_RET
    F_LOAD_PUSH_ADD = fusion.F_LOAD_PUSH_ADD
    F_LOAD_PUSH_SUB = fusion.F_LOAD_PUSH_SUB
    F_LOAD_PUSH_MUL = fusion.F_LOAD_PUSH_MUL
    F_LOAD_LOAD_ADD = fusion.F_LOAD_LOAD_ADD
    F_PUSH_ADD_STORE = fusion.F_PUSH_ADD_STORE
    F_LOAD_GETFIELD_STORE = fusion.F_LOAD_GETFIELD_STORE
    F_LOAD_PUSH_ADD_STORE = fusion.F_LOAD_PUSH_ADD_STORE
    F_LOAD_PUSH_ADD_RET = fusion.F_LOAD_PUSH_ADD_RET
    F_LOAD_PUSH_LT_JIF = fusion.F_LOAD_PUSH_LT_JIF
    F_LOAD_PUSH_LE_JIF = fusion.F_LOAD_PUSH_LE_JIF
    F_LOAD_PUSH_GT_JIF = fusion.F_LOAD_PUSH_GT_JIF
    F_LOAD_PUSH_GE_JIF = fusion.F_LOAD_PUSH_GE_JIF
    F_LOAD_PUSH_EQ_JIF = fusion.F_LOAD_PUSH_EQ_JIF
    F_LOAD_PUSH_NE_JIF = fusion.F_LOAD_PUSH_NE_JIF
    F_LOAD_LOAD_LT_JIF = fusion.F_LOAD_LOAD_LT_JIF
    F_LOAD_LOAD_LE_JIF = fusion.F_LOAD_LOAD_LE_JIF
    F_LOAD_LOAD_GT_JIF = fusion.F_LOAD_LOAD_GT_JIF
    F_LOAD_LOAD_GE_JIF = fusion.F_LOAD_LOAD_GE_JIF
    # Opt-level-3 signature of this run's hook configuration (see
    # repro.vm.jit.compiler.jit_sig): compiled bodies are entered
    # only when they were generated for exactly these hooks.
    jit_sig = (
        1 if (observer is None and telemetry is None and paths is None) else 0
    )
    if paths is not None:
        jit_sig |= 2

    result = None
    jrec = method.jit
    if (
        jrec is not None
        and jrec.entry0
        and jrec.sig == jit_sig
        and self.yieldpoint_flag == 0
        and time < next_tick
    ):
        frame.pc = pc
        self.jit_entries += 1
        time, steps, call_count = jrec.fn(
            self, frame, time, steps, call_count, next_tick
        )
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
            if op < 41:
                if op < 11:
                    if op == OP_LOAD:
                        stack.append(locals_[aarg[pc]])
                        pc += 1
                    elif op == OP_PUSH:
                        stack.append(aarg[pc])
                        pc += 1
                    elif op == OP_DUP:
                        stack.append(stack[-1])
                        pc += 1
                    elif op == OP_POP:
                        stack.pop()
                        pc += 1
                    elif op == OP_PUSH_NULL:
                        stack.append(None)
                        pc += 1
                    else:
                        break
                else:
                    if op < 24:
                        if op == OP_STORE:
                            locals_[aarg[pc]] = stack.pop()
                            pc += 1
                        elif op == OP_ADD:
                            right = stack.pop()
                            stack[-1] += right
                            pc += 1
                        elif op == OP_SUB:
                            right = stack.pop()
                            stack[-1] -= right
                            pc += 1
                        elif op == OP_MUL:
                            right = stack.pop()
                            stack[-1] *= right
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
                        else:
                            break
                    else:
                        if op == OP_JUMP:
                            target = aarg[pc]
                            if target <= pc:
                                # Loop backedge: a yieldpoint site in the Jikes
                                # scheme, and a step-limit check site (the limit
                                # must bind even when no timer ever fires).
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
                                if paths is not None:
                                    # Unconditional back edge: record the path
                                    # and reset the register (may charge).
                                    self.time = time
                                    paths.on_jump_back(pc)
                                    time = self.time
                                # On-stack replacement: hot loops whose frame
                                # was entered before the body was compiled (or
                                # that de-optimized earlier) re-enter generated
                                # code at the loop head.
                                jrec = method.jit
                                if (
                                    jrec is not None
                                    and jrec.sig == jit_sig
                                    and self.yieldpoint_flag == 0
                                    and time < next_tick
                                    and target in jrec.entries
                                ):
                                    frame.pc = target
                                    self.jit_osr_entries += 1
                                    time, steps, call_count = jrec.fn(
                                        self, frame, time, steps, call_count, next_tick
                                    )
                                    pc = frame.pc
                                    continue
                            pc = target
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
                        elif op == OP_GE:
                            right = stack.pop()
                            stack[-1] = 1 if (stack[-1] >= right) else 0
                            pc += 1
                        elif op == OP_EQ:
                            right = stack.pop()
                            t0 = stack[-1]
                            stack[-1] = 1 if ((t0 == right) if (isinstance(t0, int) and isinstance(right, int)) else (t0 is right)) else 0
                            pc += 1
                        elif op == OP_GT:
                            right = stack.pop()
                            stack[-1] = 1 if (stack[-1] > right) else 0
                            pc += 1
                        elif op == OP_NE:
                            right = stack.pop()
                            t0 = stack[-1]
                            stack[-1] = 1 if ((t0 != right) if (isinstance(t0, int) and isinstance(right, int)) else (t0 is not right)) else 0
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
                if op < 62:
                    if op == OP_GETFIELD:
                        t0 = stack[-1]
                        if t0 is None:
                            raise self._fault(
                                NullPointerError, "field read on null",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        stack[-1] = t0.fields[aarg[pc]]
                        pc += 1
                    elif op == OP_JUMP_IF_FALSE:
                        if stack.pop() == 0:
                            target = aarg[pc]
                            if target <= pc and steps >= max_steps:
                                raise self._step_limit(
                                    time, steps, call_count, fused_n, deopts, frame, method, pc
                                )
                            if paths is not None:
                                self.time = time
                                paths.on_branch(pc, True)
                                time = self.time
                            pc = target
                        else:
                            if paths is not None:
                                self.time = time
                                paths.on_branch(pc, False)
                                time = self.time
                            pc += 1
                    elif op == OP_RETURN_VAL or op == OP_RETURN:
                        time += return_cost
                        if epilogue_yp and self.yieldpoint_flag != 0:
                            self.time = time
                            self.call_count = call_count
                            frame.pc = pc
                            self._take_yieldpoint(EPILOGUE)
                            time = self.time
                        value = stack.pop() if op == OP_RETURN_VAL else None
                        if paths is not None:
                            # Record the completed path (may charge the
                            # record cost) before the frame dies.
                            self.time = time
                            paths.on_return(pc)
                            time = self.time
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
                        if value is not None or op == OP_RETURN_VAL:
                            stack.append(value)
                    elif op == OP_NEW:
                        stack.append(HeapObject(aarg[pc], field_defaults[aarg[pc]]))
                        pc += 1
                    elif op == OP_JUMP_IF_TRUE:
                        if stack.pop() != 0:
                            target = aarg[pc]
                            if target <= pc and steps >= max_steps:
                                raise self._step_limit(
                                    time, steps, call_count, fused_n, deopts, frame, method, pc
                                )
                            if paths is not None:
                                self.time = time
                                paths.on_branch(pc, True)
                                time = self.time
                            pc = target
                        else:
                            if paths is not None:
                                self.time = time
                                paths.on_branch(pc, False)
                                time = self.time
                            pc += 1
                    elif op == OP_CALL_VIRTUAL or op == OP_CALL_STATIC:
                        if steps >= max_steps:
                            # Calls are the other place the step limit must
                            # bind without a timer (recursion never crosses
                            # a backedge).
                            raise self._step_limit(
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        if op == OP_CALL_VIRTUAL:
                            argc = barg[pc]
                            receiver = stack[-argc - 1]
                            if receiver is None:
                                raise self._fault(
                                    NullPointerError, "virtual call on null",
                                    time, steps, call_count, fused_n, deopts, frame, method, pc
                                )
                            try:
                                callee_index = vtables[receiver.class_index][aarg[pc]]
                            except KeyError:
                                self._sync(
                                    time, steps, call_count, fused_n, deopts, frame, pc
                                )
                                raise self._missing_selector(
                                    receiver.class_index, aarg[pc], method, pc
                                ) from None
                            callee = cache_methods[callee_index]
                            nargs = argc + 1
                            time += call_virtual_cost
                            if ics is not None:
                                # First execution of this site under ICs:
                                # build the cache entry and quicken it.
                                self._quicken_virtual(
                                    method, pc, receiver.class_index, callee, nargs
                                )
                        else:
                            callee = cache_methods[aarg[pc]]
                            callee_index = callee.index
                            nargs = barg[pc]
                            time += call_static_cost
                            if ics is not None:
                                self._quicken_static(method, pc, callee, nargs)
                        call_count += 1
                        if not seen[callee_index]:
                            seen[callee_index] = True
                            self.methods_executed += 1
                        if hooked:
                            # Both hooks see the call site in baseline coordinates via
                            # the inline map (see Instr.origin), resolved once.
                            origin = origins[pc]
                            if origin is None:
                                caller_index = method.index
                                site_pc = pc
                            else:
                                caller_index, site_pc = origin
                            if observer is not None:
                                # Observers may charge vm.time (instrumented modes),
                                # so sync the cached counter around the call.
                                self.time = time
                                observer(caller_index, site_pc, callee_index)
                                time = self.time
                            if telemetry is not None:
                                # Zero virtual cost.
                                telemetry.on_call(time, caller_index, site_pc, callee_index)
                        if len(frames) >= max_frames:
                            raise self._fault(
                                StackOverflowError_, f"guest stack exceeded {max_frames} frames",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        views = callee.views
                        base = len(stack) - nargs
                        new_locals = stack[base:]
                        del stack[base:]
                        if callee.num_locals > nargs:
                            new_locals.extend([0] * (callee.num_locals - nargs))
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
                        if paths is not None:
                            paths.on_call(callee)
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
                        if (
                            jrec is not None
                            and jrec.entry0
                            and jrec.sig == jit_sig
                            and self.yieldpoint_flag == 0
                            and time < next_tick
                        ):
                            self.jit_entries += 1
                            time, steps, call_count = jrec.fn(
                                self, frame, time, steps, call_count, next_tick
                            )
                            pc = frame.pc
                    else:
                        break
                else:
                    if op == OP_ALOAD:
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
                    elif op == OP_IC_CALL_VIRTUAL:
                        # Quickened virtual call.  Entry layout (repro.vm.ic):
                        # [0]=nargs, [1..6]=slot0 (class, method, index,
                        # views, pad, cell), [7..12]=slot1, [13]=overflow,
                        # [14]=selector, [15]=state, [16]=cells, [17]=site.
                        if steps >= max_steps:
                            raise self._step_limit(
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        entry = ics[pc]
                        nargs = entry[0]
                        receiver = stack[-nargs]
                        if receiver is None:
                            raise self._fault(
                                NullPointerError, "virtual call on null",
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        rclass = receiver.class_index
                        if rclass == entry[1]:
                            cell = entry[6]
                            callee = entry[2]
                            callee_index = entry[3]
                            views = entry[4]
                            pad = entry[5]
                        elif rclass == entry[7]:
                            cell = entry[12]
                            callee = entry[8]
                            callee_index = entry[9]
                            views = entry[10]
                            pad = entry[11]
                        else:
                            # Both inline slots missed.  Overflow-bound
                            # classes and megamorphic flat-table resolution
                            # are handled here in the arm (not in the slow
                            # path) so their callees still reach the leaf
                            # fast path below; only binding a new class
                            # leaves the loop.
                            cell = None
                            rest = entry[13]
                            if rest is not None:
                                for r in rest:
                                    if r[0] == rclass:
                                        self.ic_misses += 1
                                        callee = r[1]
                                        callee_index = r[2]
                                        views = r[3]
                                        pad = r[4]
                                        cell = r[5]
                                        break
                            if cell is None:
                                if entry[15] > POLY_LIMIT:
                                    # Megamorphic: resolve through the flat
                                    # selector-indexed tables, never growing
                                    # the cache.
                                    self.ic_misses += 1
                                    selector = entry[14]
                                    row = flat_vtables[rclass]
                                    callee_index = (
                                        row[selector] if selector < len(row) else -1
                                    )
                                    if callee_index < 0:
                                        self._sync(
                                            time, steps, call_count, fused_n,
                                            deopts, frame, pc,
                                        )
                                        raise self._missing_selector(
                                            rclass, selector, method, pc
                                        )
                                    callee = cache_methods[callee_index]
                                    cells = entry[16]
                                    cell = cells.get(rclass)
                                    if cell is None:
                                        cell = cells[rclass] = [0]
                                    if not seen[callee_index]:
                                        seen[callee_index] = True
                                        self.methods_executed += 1
                                    views = callee.views
                                    pad = locals_pad(callee.num_locals, nargs)
                                else:
                                    # May raise (missing selector): sync the
                                    # counters first so the transcript is
                                    # exact; it's the bind slow path anyway.
                                    self._sync(
                                        time, steps, call_count, fused_n,
                                        deopts, frame, pc,
                                    )
                                    callee, callee_index, views, pad = (
                                        self._ic_virtual_slow(
                                            entry, rclass, method, pc
                                        )
                                    )
                        if cell is not None:
                            cell[0] += 1
                        time += call_virtual_cost
                        call_count += 1
                        if hooked:
                            # Both hooks see the call site in baseline coordinates via
                            # the inline map (see Instr.origin), resolved once.
                            origin = origins[pc]
                            if origin is None:
                                caller_index = method.index
                                site_pc = pc
                            else:
                                caller_index, site_pc = origin
                            if observer is not None:
                                # Observers may charge vm.time (instrumented modes),
                                # so sync the cached counter around the call.
                                self.time = time
                                observer(caller_index, site_pc, callee_index)
                                time = self.time
                            if telemetry is not None:
                                # Zero virtual cost.
                                telemetry.on_call(time, caller_index, site_pc, callee_index)
                        # Cache hits only: a freshly bound class takes the frame.
                        leaf = callee.leaf
                        if (
                            leaf is not None
                            and cell is not None
                            and paths is None
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
                        base = len(stack) - entry[0]
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
                        if paths is not None:
                            paths.on_call(callee)
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
                        if (
                            jrec is not None
                            and jrec.entry0
                            and jrec.sig == jit_sig
                            and self.yieldpoint_flag == 0
                            and time < next_tick
                        ):
                            self.jit_entries += 1
                            time, steps, call_count = jrec.fn(
                                self, frame, time, steps, call_count, next_tick
                            )
                            pc = frame.pc
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
                    elif op == OP_GUARD_METHOD:
                        t0 = stack[-1]
                        stack[-1] = 1 if (t0 is not None and vtables[t0.class_index].get(aarg[pc]) == barg[pc]) else 0
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
                    elif op == OP_IC_CALL_STATIC:
                        # Quickened static call: [method, index, views, pad,
                        # nargs] — the target is a constant.
                        if steps >= max_steps:
                            raise self._step_limit(
                                time, steps, call_count, fused_n, deopts, frame, method, pc
                            )
                        entry = ics[pc]
                        callee = entry[0]
                        callee_index = entry[1]
                        time += call_static_cost
                        call_count += 1
                        if hooked:
                            # Both hooks see the call site in baseline coordinates via
                            # the inline map (see Instr.origin), resolved once.
                            origin = origins[pc]
                            if origin is None:
                                caller_index = method.index
                                site_pc = pc
                            else:
                                caller_index, site_pc = origin
                            if observer is not None:
                                # Observers may charge vm.time (instrumented modes),
                                # so sync the cached counter around the call.
                                self.time = time
                                observer(caller_index, site_pc, callee_index)
                                time = self.time
                            if telemetry is not None:
                                # Zero virtual cost.
                                telemetry.on_call(time, caller_index, site_pc, callee_index)
                        leaf = callee.leaf
                        if (
                            leaf is not None
                            and paths is None
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
                        views = entry[2]
                        pad = entry[3]
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
                        if paths is not None:
                            paths.on_call(callee)
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
                        if (
                            jrec is not None
                            and jrec.entry0
                            and jrec.sig == jit_sig
                            and self.yieldpoint_flag == 0
                            and time < next_tick
                        ):
                            self.jit_entries += 1
                            time, steps, call_count = jrec.fn(
                                self, frame, time, steps, call_count, next_tick
                            )
                            pc = frame.pc
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
            if op < 108:
                if op == F_LOAD_GETFIELD:
                    steps += 2
                    t0 = locals_[faarg[pc]]
                    if t0 is None:
                        raise self._fault(
                            NullPointerError, "field read on null",
                            time, steps, call_count, fused_n, deopts, frame, method, pc + 1
                        )
                    stack.append(t0.fields[fbarg[pc]])
                    pc += 2
                elif op == F_LOAD_LOAD:
                    steps += 2
                    stack.append(locals_[faarg[pc]])
                    stack.append(locals_[fbarg[pc]])
                    pc += 2
                elif op == F_LOAD_PUSH:
                    steps += 2
                    stack.append(locals_[faarg[pc]])
                    stack.append(fbarg[pc])
                    pc += 2
                elif op == F_PUSH_ADD:
                    steps += 2
                    stack[-1] += faarg[pc]
                    pc += 2
                elif op == F_LOAD_ADD:
                    steps += 2
                    stack[-1] += locals_[faarg[pc]]
                    pc += 2
                elif op == F_PUSH_STORE:
                    steps += 2
                    locals_[fbarg[pc]] = faarg[pc]
                    pc += 2
                elif op == F_LOAD_SUB:
                    steps += 2
                    stack[-1] -= locals_[faarg[pc]]
                    pc += 2
                elif op == F_LOAD_MUL:
                    steps += 2
                    stack[-1] *= locals_[faarg[pc]]
                    pc += 2
                else:
                    break
            else:
                if op < 117:
                    if op == F_STORE_LOAD:
                        steps += 2
                        locals_[faarg[pc]] = stack[-1]
                        stack[-1] = locals_[fbarg[pc]]
                        pc += 2
                    elif op == F_PUSH_MOD:
                        steps += 2
                        t0 = faarg[pc]
                        t1 = stack[-1]
                        if t0 == 0:
                            raise self._fault(
                                DivisionByZeroError, "division by zero",
                                time, steps, call_count, fused_n, deopts, frame, method, pc + 1
                            )
                        t2 = abs(t1) // abs(t0)
                        if (t1 < 0) != (t0 < 0): t2 = -t2
                        stack[-1] = t1 - t2 * t0
                        pc += 2
                    elif op == F_LT_JIF:
                        steps += 2
                        right = stack.pop()
                        if stack.pop() < right:
                            pc += 2
                        else:
                            target = faarg[pc]
                            if target <= pc + 1 and steps >= max_steps:
                                raise self._step_limit(
                                    time, steps, call_count, fused_n, deopts, frame, method, pc + 1
                                )
                            pc = target
                    elif op == F_EQ_JIF:
                        steps += 2
                        right = stack.pop()
                        t0 = stack.pop()
                        if (t0 == right) if (isinstance(t0, int) and isinstance(right, int)) else (t0 is right):
                            pc += 2
                        else:
                            target = faarg[pc]
                            if target <= pc + 1 and steps >= max_steps:
                                raise self._step_limit(
                                    time, steps, call_count, fused_n, deopts, frame, method, pc + 1
                                )
                            pc = target
                    elif op == F_PUSH_MUL:
                        steps += 2
                        stack[-1] *= faarg[pc]
                        pc += 2
                    elif op == F_GE_JIF:
                        steps += 2
                        right = stack.pop()
                        if stack.pop() >= right:
                            pc += 2
                        else:
                            target = faarg[pc]
                            if target <= pc + 1 and steps >= max_steps:
                                raise self._step_limit(
                                    time, steps, call_count, fused_n, deopts, frame, method, pc + 1
                                )
                            pc = target
                    elif op == F_PUSH_SUB:
                        steps += 2
                        stack[-1] -= faarg[pc]
                        pc += 2
                    elif op == F_GT_JIF:
                        steps += 2
                        right = stack.pop()
                        if stack.pop() > right:
                            pc += 2
                        else:
                            target = faarg[pc]
                            if target <= pc + 1 and steps >= max_steps:
                                raise self._step_limit(
                                    time, steps, call_count, fused_n, deopts, frame, method, pc + 1
                                )
                            pc = target
                    elif op == F_LE_JIF:
                        steps += 2
                        right = stack.pop()
                        if stack.pop() <= right:
                            pc += 2
                        else:
                            target = faarg[pc]
                            if target <= pc + 1 and steps >= max_steps:
                                raise self._step_limit(
                                    time, steps, call_count, fused_n, deopts, frame, method, pc + 1
                                )
                            pc = target
                    else:
                        break
                else:
                    if op < 150:
                        if op < 133:
                            if op == F_LOAD_PUSH_MUL:
                                steps += 3
                                stack.append(locals_[faarg[pc]] * fbarg[pc])
                                pc += 3
                            elif op == F_NE_JIF:
                                steps += 2
                                right = stack.pop()
                                t0 = stack.pop()
                                if (t0 != right) if (isinstance(t0, int) and isinstance(right, int)) else (t0 is not right):
                                    pc += 2
                                else:
                                    target = faarg[pc]
                                    if target <= pc + 1 and steps >= max_steps:
                                        raise self._step_limit(
                                            time, steps, call_count, fused_n, deopts, frame, method, pc + 1
                                        )
                                    pc = target
                            elif op == F_LOAD_PUSH_SUB:
                                steps += 3
                                stack.append(locals_[faarg[pc]] - fbarg[pc])
                                pc += 3
                            elif op == F_LOAD_RET:
                                steps += 2
                                value = locals_[faarg[pc]]
                                time += return_cost
                                if epilogue_yp and self.yieldpoint_flag != 0:
                                    self.time = time
                                    self.call_count = call_count
                                    frame.pc = pc + 1
                                    self._take_yieldpoint(EPILOGUE)
                                    time = self.time
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
                            elif op == F_LOAD_PUSH_ADD:
                                steps += 3
                                stack.append(locals_[faarg[pc]] + fbarg[pc])
                                pc += 3
                            else:
                                break
                        else:
                            if op == F_PUSH_ADD_STORE:
                                steps += 3
                                locals_[fbarg[pc]] = stack.pop() + faarg[pc]
                                pc += 3
                            elif op == F_LOAD_GETFIELD_STORE:
                                steps += 3
                                offset, dst = fbarg[pc]
                                t0 = locals_[faarg[pc]]
                                if t0 is None:
                                    # Fault mid-group: attribute the raw pc and
                                    # give back the trailing components' charge
                                    # (the raw run never reached them).
                                    raise self._fault(
                                        NullPointerError, "field read on null",
                                        time - costs[pc + 2], steps - 1, call_count, fused_n, deopts, frame, method, pc + 1
                                    )
                                locals_[dst] = t0.fields[offset]
                                pc += 3
                            elif op == F_LOAD_LOAD_ADD:
                                steps += 3
                                stack.append(locals_[faarg[pc]] + locals_[fbarg[pc]])
                                pc += 3
                            else:
                                break
                    else:
                        if op == F_LOAD_PUSH_ADD_STORE:
                            steps += 4
                            k, dst = fbarg[pc]
                            locals_[dst] = locals_[faarg[pc]] + k
                            pc += 4
                        elif op == F_LOAD_LOAD_LT_JIF:
                            steps += 4
                            other, target = fbarg[pc]
                            if locals_[faarg[pc]] < locals_[other]:
                                pc += 4
                            else:
                                if target <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = target
                        elif op == F_LOAD_PUSH_LT_JIF:
                            steps += 4
                            k, target = fbarg[pc]
                            if locals_[faarg[pc]] < k:
                                pc += 4
                            else:
                                if target <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = target
                        elif op == F_LOAD_PUSH_GT_JIF:
                            steps += 4
                            k, target = fbarg[pc]
                            if locals_[faarg[pc]] > k:
                                pc += 4
                            else:
                                if target <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = target
                        elif op == F_LOAD_LOAD_GT_JIF:
                            steps += 4
                            other, target = fbarg[pc]
                            if locals_[faarg[pc]] > locals_[other]:
                                pc += 4
                            else:
                                if target <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = target
                        elif op == F_LOAD_PUSH_EQ_JIF:
                            steps += 4
                            k, target = fbarg[pc]
                            t0 = locals_[faarg[pc]]
                            if isinstance(t0, int) and t0 == k:
                                pc += 4
                            else:
                                if target <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = target
                        elif op == F_LOAD_PUSH_GE_JIF:
                            steps += 4
                            k, target = fbarg[pc]
                            if locals_[faarg[pc]] >= k:
                                pc += 4
                            else:
                                if target <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = target
                        elif op == F_LOAD_PUSH_ADD_RET:
                            steps += 4
                            value = locals_[faarg[pc]] + fbarg[pc]
                            time += return_cost
                            if epilogue_yp and self.yieldpoint_flag != 0:
                                self.time = time
                                self.call_count = call_count
                                frame.pc = pc + 3
                                self._take_yieldpoint(EPILOGUE)
                                time = self.time
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
                        elif op == F_LOAD_PUSH_LE_JIF:
                            steps += 4
                            k, target = fbarg[pc]
                            if locals_[faarg[pc]] <= k:
                                pc += 4
                            else:
                                if target <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = target
                        elif op == F_LOAD_PUSH_NE_JIF:
                            steps += 4
                            k, target = fbarg[pc]
                            t0 = locals_[faarg[pc]]
                            if not isinstance(t0, int) or t0 != k:
                                pc += 4
                            else:
                                if target <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = target
                        elif op == F_LOAD_LOAD_LE_JIF:
                            steps += 4
                            other, target = fbarg[pc]
                            if locals_[faarg[pc]] <= locals_[other]:
                                pc += 4
                            else:
                                if target <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = target
                        elif op == F_LOAD_LOAD_GE_JIF:
                            steps += 4
                            other, target = fbarg[pc]
                            if locals_[faarg[pc]] >= locals_[other]:
                                pc += 4
                            else:
                                if target <= pc + 3 and steps >= max_steps:
                                    raise self._step_limit(
                                        time, steps, call_count, fused_n, deopts, frame, method, pc + 3
                                    )
                                pc = target
                        else:
                            break

    if frames:
        # A tree leaf's ``else: break``: no arm owns ``op``.
        if op < FUSE_BASE:
            raise self._fault(
                VMError, f"unknown opcode {op}",
                time, steps, call_count, fused_n, deopts, frame, method, pc
            )
        raise self._fault(
            VMError, f"unknown superinstruction {op}",
            time, steps, call_count, fused_n, deopts, frame, method, pc
        )
    self.time = time
    self.steps = steps
    self.call_count = call_count
    self.fused_dispatches = fused_n
    self.fusion_deopts = deopts
    return result
