"""Superinstruction fusion for the Mini VM (quickened dispatch).

The interpreter's dominant host-level cost is dispatch: one trip around
the ``while`` loop per bytecode.  Following Piumarta & Riccardi's
selective inlining (PLDI 1998) and Brunthaler's interpreter quickening
(ECOOP 2010), :func:`fuse_method` rewrites a compiled method's flat
opcode array so that frequent adjacent windows of two to
:data:`MAX_WIDTH` instructions dispatch as a single *superinstruction*
whose handler does the combined work.

**The windows are measured, not written.**  ``python -m
repro.vm.dispatchgen --measure`` counts the dispatches of every pc of
the 13 benchsuite programs (plain, hooked and profile-optimised, each
program weighing the same), enumerates every window the placement rule
below allows, and picks greedily: each round adds the window that saves
the most dispatches when this module's own matcher (:func:`match`)
runs over the counts with it, until :data:`MAX_WINDOWS` are chosen or
the best one left saves under :data:`MIN_SAVING_PPM`.  The choice is
committed as :data:`WINDOWS`, beside what each window saved.  Ids,
names, the packed operand layout and the zero-divisor guard are derived
from the components' :class:`~repro.bytecode.opcodes.OpSpec` rows, and
so is every dispatch arm (:mod:`repro.vm.dispatchgen`) and the set of
opcodes any window uses (:data:`FUSABLE_OPS`); a tier-1 test fails when
the committed table is not what measurement prints.  Every window is
one more arm in the generated loop, so :data:`MAX_WINDOWS` is set by
the loop's size: each process without a bytecode cache compiles it.

**One trie walk.**  :func:`index` builds a trie of the windows, and
:func:`match` walks it down from a head once, keeping the longest window
whose divisor ``PUSH``es are non-zero.  The trie holds only windows the
placement rule allows, so a walk needs bounding by jump targets alone:
:func:`fuse_method` walks each stretch between two of them, which is the
placement runs and the greedy longest-first matching in one pass.

Fusion is a pure dispatch-level rewrite; it must be **unobservable** in
everything the paper measures (virtual time, timer ticks, yieldpoints,
step counts, DCG edges, telemetry).  Two rules guarantee that:

1. *Placement* (:func:`runs`).  A group never crosses a jump target
   (control cannot enter its interior), never contains a call, a
   ``JUMP``, a ``RETURN`` or an op with a run-time charge (the
   yieldpoint-bearing, frame-switching or ``dyn_cost`` instructions),
   and keeps its components' combined virtual cost: ``fcosts[head]`` is
   the sum of the member costs, so a group charges exactly what its
   members would.  Conditional jumps and ``RETURN_VAL`` may appear only
   as the *last* component, with the handler replicating the raw
   instruction's epilogue-yieldpoint / step-limit behavior exactly.

2. *Tick boundaries.*  The unfused interpreter checks ``time >=
   next_tick`` after every instruction; a tick therefore fires inside a
   group iff ``time + fcosts[head] >= next_tick`` (components after the
   last nonzero-cost member — only zero-cost ``RETURN_VAL`` tails —
   cannot be firing points).  When that predicate holds the interpreter
   *de-quickens*: it swaps its cached ``ops``/``costs`` views back to
   the raw arrays and re-executes the group step-wise, so the tick, and
   any yieldpoint or recompilation it triggers, lands on exactly the
   same instruction at exactly the same virtual time as without fusion.
   The raw view is restored right after the tick fires.  Interior slots
   of ``fops`` keep their raw opcodes precisely so this mid-group
   execution works.

Superinstruction opcodes occupy ``[FUSE_BASE, ...)`` — disjoint both
from :class:`~repro.bytecode.opcodes.Op` and from the inline-cache
quickened opcodes in ``[IC_BASE, IC_BASE + 2)`` = ``[90, 92)`` (see
:mod:`repro.vm.ic`; calls, which fusion never groups, so the two
quickening layers rewrite disjoint pcs) — and exist only
inside :class:`~repro.vm.runtime.CompiledMethod` arrays; bytecode on
disk, the optimizer, the verifier, and the profilers never see them.

Like the raw arithmetic handlers, fused handlers assume verified
programs (operand types are the frontend's problem); host-level
``TypeError`` crashes on malformed hand-built code may differ cosmetically
from the unfused path, guest-visible ``VMError`` behavior does not.
"""

from __future__ import annotations

from repro.bytecode.opcodes import JUMP_OPS, OPCODE_SPECS, SPEC_BY_OP, Op, jump_targets

#: First superinstruction id; everything below is a raw :class:`Op`.
FUSE_BASE = 100
#: The widest window measurement considers, in instructions.
MAX_WIDTH = 8
#: The greedy choice stops at this many windows (the generated loop
#: grows by one arm per window; docs/PERFORMANCE.md, "Eight wide") ...
MAX_WINDOWS = 60
#: ... or when the best window left saves fewer dispatches than this, in
#: parts per million.
MIN_SAVING_PPM = 1000

#: The measured table: component names -> dispatches the window saved
#: when it was chosen, in parts per million of all unfused dispatches
#: (the 13 benchsuite programs at ``tiny``, plain, hooked and
#: profile-optimised, each program weighing the same).  Window ``i`` is
#: superinstruction ``FUSE_BASE + i``.  Re-measure (never hand-edit) with
#: ``python -m repro.vm.dispatchgen --measure`` and paste its output.
WINDOWS = {
    ("LOAD", "GETFIELD", "LOAD"): 87970,
    ("LOAD", "PUSH", "ADD", "STORE"): 79653,
    ("LOAD", "LOAD"): 63052,
    ("LOAD", "PUSH"): 35738,
    ("ADD", "PUSH", "MOD", "STORE"): 31873,
    ("LT", "JUMP_IF_FALSE"): 30646,
    ("LOAD", "LOAD", "GETFIELD"): 20671,
    ("LOAD", "GETFIELD", "MOD", "ALOAD", "GETFIELD", "PUSH", "LT", "JUMP_IF_FALSE"): 17300,
    ("LOAD", "LOAD", "LT", "JUMP_IF_FALSE"): 12775,
    ("LOAD", "GETFIELD"): 12214,
    ("LOAD", "PUSH", "MUL", "PUSH", "ADD", "PUSH", "MOD", "STORE"): 11892,
    ("ALOAD", "STORE", "LOAD"): 11150,
    ("PUSH", "SUB", "ALOAD", "ASTORE", "LOAD", "PUSH", "SUB", "STORE"): 9985,
    ("LOAD", "GETFIELD", "LOAD", "GETFIELD"): 9949,
    ("LOAD", "PUSH", "MOD"): 9015,
    ("MUL", "LOAD", "ADD", "LOAD", "ADD", "PUSH", "MOD", "STORE"): 8609,
    ("ALOAD", "MUL", "PUSH", "DIV", "ADD", "STORE"): 8498,
    ("STORE", "DUP", "GUARD_METHOD", "JUMP_IF_FALSE"): 8438,
    ("GE", "DUP", "JUMP_IF_FALSE"): 8012,
    ("LOAD", "LOAD", "GETFIELD", "LT", "JUMP_IF_FALSE"): 7257,
    ("ASTORE", "LOAD", "PUSH", "ADD", "STORE"): 7132,
    ("LOAD", "LOAD", "GETFIELD", "PUSH", "ADD", "PUTFIELD"): 6955,
    ("LOAD", "GETFIELD", "LOAD", "ALOAD", "LOAD", "LOAD"): 6867,
    ("PUSH", "MOD"): 6428,
    ("LOAD", "LOAD", "GETFIELD", "LOAD", "LOAD", "SUB", "ALOAD", "LOAD"): 6083,
    ("LOAD", "PUSH", "LT", "JUMP_IF_FALSE"): 6081,
    ("LOAD", "GETFIELD", "PUSH_NULL", "EQ", "JUMP_IF_FALSE"): 5874,
    ("LT", "DUP", "JUMP_IF_FALSE"): 5826,
    ("LOAD", "GETFIELD", "LOAD", "ALOAD", "STORE", "LOAD", "LOAD"): 5637,
    ("STORE", "LOAD", "LOAD", "GETFIELD", "NE", "JUMP_IF_FALSE"): 5132,
    ("LOAD", "LOAD", "GETFIELD", "LOAD", "ALOAD", "LOAD", "GETFIELD", "LOAD"): 5099,
    ("LOAD", "GETFIELD", "LOAD", "NE", "JUMP_IF_FALSE"): 5026,
    ("POP", "LOAD", "GETFIELD", "LOAD", "GETFIELD", "ALOAD", "PUSH"): 4518,
    ("PUSH", "EQ", "JUMP_IF_FALSE"): 4377,
    ("POP", "LOAD", "LOAD", "LT"): 4330,
    ("LOAD", "LOAD", "PUSH", "MOD", "ADD"): 4201,
    ("LOAD", "SUB", "ALOAD", "ASTORE", "LOAD", "LOAD", "SUB", "STORE"): 3957,
    ("LOAD", "PUSH", "GT", "JUMP_IF_FALSE"): 3488,
    ("ALOAD", "STORE", "LOAD", "LOAD", "GE", "DUP", "JUMP_IF_FALSE"): 3293,
    ("LOAD", "LOAD", "PUTFIELD"): 3182,
    ("STORE", "STORE", "STORE", "LOAD", "GETFIELD", "JUMP_IF_FALSE"): 3108,
    ("POP", "LOAD", "LOAD", "PUSH", "SUB", "LT"): 3066,
    ("LOAD", "LOAD", "PUSH", "LOAD", "LOAD", "ADD", "PUSH", "MOD"): 3049,
    ("ALOAD", "STORE", "LOAD", "LOAD", "GETFIELD", "PUSH", "ADD", "PUTFIELD"): 3046,
    ("STORE", "LOAD", "LOAD", "MUL", "PUSH", "DIV", "LOAD", "LOAD"): 2981,
    ("LOAD", "LOAD", "ALOAD", "ASTORE", "LOAD", "PUSH", "ADD", "STORE"): 2911,
    ("LOAD", "PUSH", "MUL", "LOAD", "GETFIELD", "LOAD", "GETFIELD", "ALOAD"): 2681,
    ("LOAD", "PUSH", "MOD", "ASTORE", "LOAD", "PUSH", "ADD", "STORE"): 2619,
    ("MUL", "LOAD", "ADD", "PUSH", "MOD", "STORE"): 2611,
    ("PUSH", "STORE"): 2579,
    ("NEW", "DUP"): 2532,
    ("LOAD", "LOAD", "GT", "JUMP_IF_FALSE"): 2408,
    ("STORE", "LOAD", "PUSH", "GE", "JUMP_IF_FALSE"): 2385,
    ("LOAD", "GETFIELD", "LOAD", "LOAD", "GETFIELD", "LOAD"): 2324,
    ("LOAD", "GETFIELD", "LOAD", "GETFIELD", "SUB"): 2311,
    ("LOAD", "GETFIELD", "LOAD", "GETFIELD", "ARRAY_LEN", "GE", "JUMP_IF_FALSE"): 2302,
    ("LOAD", "PUSH", "EQ", "JUMP_IF_FALSE"): 2266,
    ("STORE", "LOAD", "PUSH", "LE", "DUP", "JUMP_IF_TRUE"): 2180,
    ("LOAD", "GETFIELD", "STORE"): 2166,
    ("LOAD", "LOAD", "SUB", "STORE", "LOAD", "PUSH", "LT", "JUMP_IF_FALSE"): 2156,
}

# -- placement ------------------------------------------------------------------

#: Where an opcode may sit in a window: anywhere, only last (a
#: conditional jump, ``RETURN_VAL``), or nowhere (calls, ``JUMP``,
#: ``RETURN``, run-time charged ops).
_ANYWHERE, _LAST = "anywhere", "last"
PLACEMENT: dict[int, str | None] = {
    int(spec.op): (
        None
        if spec.kind in ("call", "jump") or spec.dyn_cost
        or (spec.kind == "return" and spec.arg == "void")
        else _LAST if spec.kind in ("branch", "return")
        else _ANYWHERE
    )
    for spec in OPCODE_SPECS
}


def runs(code):
    """The maximal ``(start, end)`` stretches of ``code`` a window may
    lie in: each starts at a jump target or after an op no window holds,
    and ends before the next such point or after a last-only op."""
    targets = jump_targets(code)
    start = 0
    for pc, instr in enumerate(code):
        if pc in targets and pc > start:
            yield start, pc
            start = pc
        place = PLACEMENT[instr.op]
        if place != _ANYWHERE:
            end = pc if place is None else pc + 1
            if end > start:
                yield start, end
            start = pc + 1
    if start < len(code):
        yield start, len(code)


# -- the table, derived ---------------------------------------------------------


def operands(seq) -> tuple[tuple[str, int], ...]:
    """The ``(field, component)`` operands a group head packs, in order:
    the ``a`` of every component whose encoding carries one (``size`` > 1)
    and ``GUARD_METHOD``'s ``b`` (``size`` 4).  The first goes in ``fa``,
    the rest in ``fb`` (a tuple when there are several)."""
    packed = []
    for i, op in enumerate(seq):
        size = SPEC_BY_OP[op].size
        if size > 1:
            packed.append(("a", i))
        if size > 3:
            packed.append(("b", i))
    return tuple(packed)


def divisor_pushes(seq) -> tuple[int, ...]:
    """Offsets of the ``PUSH``es feeding a component with a ``div_zero``
    fault.  A zero immediate there keeps the window raw, so the raw
    handler is the one that faults."""
    return tuple(
        i
        for i in range(len(seq) - 1)
        if seq[i] == Op.PUSH
        and any(f.kind == "div_zero" for f in SPEC_BY_OP[seq[i + 1]].faults)
    )


#: Key under which a trie node holds the window that ends there.
_END = -1


def index(windows) -> dict:
    """The trie of ``windows`` (window ``i`` is id ``FUSE_BASE + i``):
    one dict per node from opcode to child, and at the node where a
    window ends, ``(fused id, divisor offsets)`` under ``_END``.

    Every window must be one :func:`runs` could hold — two or more ops,
    none without a placement, a last-only op only last — so a walk down
    the trie never crosses a placement boundary; only jump targets are
    left for the caller to bound it with."""
    trie: dict = {}
    for i, seq in enumerate(windows):
        seq = tuple(int(op) for op in seq)
        places = [PLACEMENT[op] for op in seq]
        if len(seq) < 2 or None in places or _LAST in places[:-1]:
            raise ValueError(f"no run can hold window {seq}")
        node = trie
        for op in seq:
            node = node.setdefault(op, {})
        node[_END] = (FUSE_BASE + i, divisor_pushes(seq))
    return trie


def match(trie, ops, a, pc, end):
    """The longest window of ``trie`` at ``pc`` that ends by ``end`` and
    whose divisor ``PUSH``es (``a`` holds their immediates) are all
    non-zero: ``(fused id, stop)``, or ``None``."""
    found = None
    node = trie.get(ops[pc])
    stop = pc + 1
    while node is not None:
        window = node.get(_END)
        if window is not None:
            fid, divisors = window
            if not divisors or all(a[pc + i] != 0 for i in divisors):
                found = fid, stop
        if stop == end:
            break
        node = node.get(ops[stop])
        stop += 1
    return found


def groups(trie, ops, a, start, end):
    """Greedy longest-first matching over ``ops[start:end]``, a stretch
    no jump lands inside: ``(head, fused id, stop)`` per group formed."""
    pc = start
    while pc < end:
        if ops[pc] in trie:
            found = match(trie, ops, a, pc, end)
            if found is not None:
                yield pc, found[0], found[1]
                pc = found[1]
                continue
        pc += 1


_COMPONENTS = [tuple(Op[name] for name in names) for names in WINDOWS]
_TRIE = index(_COMPONENTS)

#: fused id -> raw component opcodes.  The template JIT expands a
#: quickened head back into its components and reuses the per-raw-op
#: templates, so one emitter serves fused and unfused streams alike;
#: the dispatch-arm generator derives each fused handler the same way.
FUSED_COMPONENTS: dict[int, tuple[int, ...]] = {
    FUSE_BASE + i: tuple(int(op) for op in seq) for i, seq in enumerate(_COMPONENTS)
}
#: fused id -> human-readable name (for the disassembler and tests).
FUSED_NAMES: dict[int, str] = {
    FUSE_BASE + i: "_".join(names) for i, names in enumerate(WINDOWS)
}
#: fused id -> number of raw instructions the superinstruction covers.
FUSED_ARITY: dict[int, int] = {fid: len(seq) for fid, seq in FUSED_COMPONENTS.items()}
#: fused id -> the ``(field, component)`` operands its head packs; the
#: dispatch-arm generator reads the same rows the fuser packs with.
FUSED_OPERANDS: dict[int, tuple] = {
    fid: operands(seq) for fid, seq in FUSED_COMPONENTS.items()
}
#: The opcodes some measured window uses (``disasm --spec`` notes them).
FUSABLE_OPS = frozenset(op for seq in _COMPONENTS for op in seq)


#: Raw opcodes whose ``a`` is a jump target, as plain ints.
_JUMPS = frozenset(int(op) for op in JUMP_OPS)


def fuse_method(ops, a, b, costs):
    """Quicken one method's parallel arrays.

    ``ops``/``a``/``b``/``costs`` are the method's unzipped opcode,
    operand and cost arrays.  Returns ``(fops, fcosts, fa, fb, sites,
    span)`` where the first four are same-length arrays (group heads hold
    the fused opcode, summed cost, and packed operands; interior slots
    keep their raw contents for the de-quickened slow path), ``sites`` is
    the number of groups formed, and ``span`` the raw instructions they
    cover.  Returns ``None`` when nothing fuses.

    One pass: :func:`groups` runs over each stretch between jump
    targets, which forms what it would over each of :func:`runs` (the
    trie holds no window a placement boundary could split).
    """
    n = len(ops)
    targets = sorted({a[pc] for pc in range(n) if ops[pc] in _JUMPS})
    fops, fcosts = list(ops), list(costs)
    fa: list = [None] * n
    fb: list = [None] * n
    fields = {"a": a, "b": b}
    sites = span = 0
    start = 0
    for end in (*targets, n):
        if not start < end <= n:
            continue
        for pc, fid, stop in groups(_TRIE, ops, a, start, end):
            fops[pc] = fid
            fcosts[pc] = sum(costs[pc:stop])
            packed = [fields[field][pc + i] for field, i in FUSED_OPERANDS[fid]]
            fa[pc] = packed[0] if packed else None
            rest = packed[1:]
            fb[pc] = rest[0] if len(rest) == 1 else tuple(rest) or None
            sites += 1
            span += stop - pc
        start = end
    if sites == 0:
        return None
    return fops, fcosts, fa, fb, sites, span
