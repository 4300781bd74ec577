"""Superinstruction fusion for the Mini VM (quickened dispatch).

The interpreter's dominant host-level cost is dispatch: one trip around
the ``while`` loop per bytecode.  Following Piumarta & Riccardi's
selective inlining (PLDI 1998) and Brunthaler's interpreter quickening
(ECOOP 2010), :func:`fuse_method` rewrites a compiled method's flat
opcode array so that frequent adjacent pairs/triples/quads dispatch as a
single *superinstruction* with a handler that does the combined work —
``LOAD x; PUSH k; ADD; STORE y`` becomes one ``locals[y] = locals[x] + k``.

Fusion is a pure dispatch-level rewrite; it must be **unobservable** in
everything the paper measures (virtual time, timer ticks, yieldpoints,
step counts, DCG edges, telemetry).  Two rules guarantee that:

1. *Placement.*  A group never crosses a jump target (control cannot
   enter its interior), never contains a call or an unconditional jump
   (the yieldpoint-bearing / frame-switching instructions), and keeps
   its components' combined virtual cost: ``fcosts[head]`` is the sum of
   the member costs, so a group charges exactly what its members would.
   Conditional jumps and ``RETURN_VAL`` may appear only as the *last*
   component, with the handler replicating the raw instruction's
   epilogue-yieldpoint / step-limit behavior exactly.

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

from repro.bytecode.opcodes import FUSABLE_OPS, Op, jump_targets

#: First superinstruction id; everything below is a raw :class:`Op`.
FUSE_BASE = 100

# -- pairs ------------------------------------------------------------------
F_LOAD_LOAD = 100       # LOAD x; LOAD y
F_LOAD_PUSH = 101       # LOAD x; PUSH k
F_LOAD_ADD = 102        # LOAD x; ADD
F_LOAD_SUB = 103        # LOAD x; SUB
F_LOAD_MUL = 104        # LOAD x; MUL
F_LOAD_GETFIELD = 105   # LOAD x; GETFIELD f
F_PUSH_STORE = 106      # PUSH k; STORE y
F_PUSH_ADD = 107        # PUSH k; ADD
F_PUSH_SUB = 108        # PUSH k; SUB
F_PUSH_MUL = 109        # PUSH k; MUL
F_PUSH_MOD = 110        # PUSH k; MOD        (k != 0, checked at fuse time)
F_STORE_LOAD = 111      # STORE x; LOAD y
F_LT_JIF = 112          # LT; JUMP_IF_FALSE t
F_LE_JIF = 113
F_GT_JIF = 114
F_GE_JIF = 115
F_EQ_JIF = 116
F_NE_JIF = 117
F_LOAD_RET = 118        # LOAD x; RETURN_VAL

# -- triples ----------------------------------------------------------------
F_LOAD_PUSH_ADD = 130   # LOAD x; PUSH k; ADD
F_LOAD_PUSH_SUB = 131
F_LOAD_PUSH_MUL = 132
F_LOAD_LOAD_ADD = 133   # LOAD x; LOAD y; ADD
F_PUSH_ADD_STORE = 134  # PUSH k; ADD; STORE y
F_LOAD_GETFIELD_STORE = 135  # LOAD x; GETFIELD f; STORE y

# -- quads ------------------------------------------------------------------
F_LOAD_PUSH_ADD_STORE = 150  # LOAD x; PUSH k; ADD; STORE y
F_LOAD_PUSH_ADD_RET = 151    # LOAD x; PUSH k; ADD; RETURN_VAL
F_LOAD_PUSH_LT_JIF = 152     # LOAD x; PUSH k; LT; JUMP_IF_FALSE t
F_LOAD_PUSH_LE_JIF = 153
F_LOAD_PUSH_GT_JIF = 154
F_LOAD_PUSH_GE_JIF = 155
F_LOAD_PUSH_EQ_JIF = 156
F_LOAD_PUSH_NE_JIF = 157
F_LOAD_LOAD_LT_JIF = 158     # LOAD x; LOAD y; LT; JUMP_IF_FALSE t
F_LOAD_LOAD_LE_JIF = 159
F_LOAD_LOAD_GT_JIF = 160
F_LOAD_LOAD_GE_JIF = 161


def _nonzero_push(group) -> bool:
    return group[0].a != 0


#: (fused id, component opcodes, operand layout, optional guard).
#:
#: The *layout* declares where the group head's packed ``(fa, fb)``
#: operands come from: ``"a0"``..``"a3"`` names component *i*'s ``a``
#: operand, ``None`` means unused, and a tuple packs several operands
#: into one slot (unpacked once per dispatch, no allocation).  The
#: layout is data, not code, so the dispatch-arm generator
#: (:mod:`repro.vm.dispatchgen`) reads the very same rows to know which
#: expression each generated fused handler must substitute for a
#: component's operand — the fuser and the handlers cannot drift apart.
_PATTERNS = [
    # pairs
    (F_LOAD_LOAD, (Op.LOAD, Op.LOAD), ("a0", "a1"), None),
    (F_LOAD_PUSH, (Op.LOAD, Op.PUSH), ("a0", "a1"), None),
    (F_LOAD_ADD, (Op.LOAD, Op.ADD), ("a0", None), None),
    (F_LOAD_SUB, (Op.LOAD, Op.SUB), ("a0", None), None),
    (F_LOAD_MUL, (Op.LOAD, Op.MUL), ("a0", None), None),
    (F_LOAD_GETFIELD, (Op.LOAD, Op.GETFIELD), ("a0", "a1"), None),
    (F_PUSH_STORE, (Op.PUSH, Op.STORE), ("a0", "a1"), None),
    (F_PUSH_ADD, (Op.PUSH, Op.ADD), ("a0", None), None),
    (F_PUSH_SUB, (Op.PUSH, Op.SUB), ("a0", None), None),
    (F_PUSH_MUL, (Op.PUSH, Op.MUL), ("a0", None), None),
    (F_PUSH_MOD, (Op.PUSH, Op.MOD), ("a0", None), _nonzero_push),
    (F_STORE_LOAD, (Op.STORE, Op.LOAD), ("a0", "a1"), None),
    (F_LT_JIF, (Op.LT, Op.JUMP_IF_FALSE), ("a1", None), None),
    (F_LE_JIF, (Op.LE, Op.JUMP_IF_FALSE), ("a1", None), None),
    (F_GT_JIF, (Op.GT, Op.JUMP_IF_FALSE), ("a1", None), None),
    (F_GE_JIF, (Op.GE, Op.JUMP_IF_FALSE), ("a1", None), None),
    (F_EQ_JIF, (Op.EQ, Op.JUMP_IF_FALSE), ("a1", None), None),
    (F_NE_JIF, (Op.NE, Op.JUMP_IF_FALSE), ("a1", None), None),
    (F_LOAD_RET, (Op.LOAD, Op.RETURN_VAL), ("a0", None), None),
    # triples
    (F_LOAD_PUSH_ADD, (Op.LOAD, Op.PUSH, Op.ADD), ("a0", "a1"), None),
    (F_LOAD_PUSH_SUB, (Op.LOAD, Op.PUSH, Op.SUB), ("a0", "a1"), None),
    (F_LOAD_PUSH_MUL, (Op.LOAD, Op.PUSH, Op.MUL), ("a0", "a1"), None),
    (F_LOAD_LOAD_ADD, (Op.LOAD, Op.LOAD, Op.ADD), ("a0", "a1"), None),
    (F_PUSH_ADD_STORE, (Op.PUSH, Op.ADD, Op.STORE), ("a0", "a2"), None),
    (
        F_LOAD_GETFIELD_STORE,
        (Op.LOAD, Op.GETFIELD, Op.STORE),
        ("a0", ("a1", "a2")),
        None,
    ),
    # quads
    (
        F_LOAD_PUSH_ADD_STORE,
        (Op.LOAD, Op.PUSH, Op.ADD, Op.STORE),
        ("a0", ("a1", "a3")),
        None,
    ),
    (
        F_LOAD_PUSH_ADD_RET,
        (Op.LOAD, Op.PUSH, Op.ADD, Op.RETURN_VAL),
        ("a0", "a1"),
        None,
    ),
    (
        F_LOAD_PUSH_LT_JIF,
        (Op.LOAD, Op.PUSH, Op.LT, Op.JUMP_IF_FALSE),
        ("a0", ("a1", "a3")),
        None,
    ),
    (
        F_LOAD_PUSH_LE_JIF,
        (Op.LOAD, Op.PUSH, Op.LE, Op.JUMP_IF_FALSE),
        ("a0", ("a1", "a3")),
        None,
    ),
    (
        F_LOAD_PUSH_GT_JIF,
        (Op.LOAD, Op.PUSH, Op.GT, Op.JUMP_IF_FALSE),
        ("a0", ("a1", "a3")),
        None,
    ),
    (
        F_LOAD_PUSH_GE_JIF,
        (Op.LOAD, Op.PUSH, Op.GE, Op.JUMP_IF_FALSE),
        ("a0", ("a1", "a3")),
        None,
    ),
    (
        F_LOAD_PUSH_EQ_JIF,
        (Op.LOAD, Op.PUSH, Op.EQ, Op.JUMP_IF_FALSE),
        ("a0", ("a1", "a3")),
        None,
    ),
    (
        F_LOAD_PUSH_NE_JIF,
        (Op.LOAD, Op.PUSH, Op.NE, Op.JUMP_IF_FALSE),
        ("a0", ("a1", "a3")),
        None,
    ),
    (
        F_LOAD_LOAD_LT_JIF,
        (Op.LOAD, Op.LOAD, Op.LT, Op.JUMP_IF_FALSE),
        ("a0", ("a1", "a3")),
        None,
    ),
    (
        F_LOAD_LOAD_LE_JIF,
        (Op.LOAD, Op.LOAD, Op.LE, Op.JUMP_IF_FALSE),
        ("a0", ("a1", "a3")),
        None,
    ),
    (
        F_LOAD_LOAD_GT_JIF,
        (Op.LOAD, Op.LOAD, Op.GT, Op.JUMP_IF_FALSE),
        ("a0", ("a1", "a3")),
        None,
    ),
    (
        F_LOAD_LOAD_GE_JIF,
        (Op.LOAD, Op.LOAD, Op.GE, Op.JUMP_IF_FALSE),
        ("a0", ("a1", "a3")),
        None,
    ),
]


def _pick_operand(desc, group):
    if desc is None:
        return None
    if isinstance(desc, tuple):
        return tuple(group[int(d[1:])].a for d in desc)
    return group[int(desc[1:])].a


def _make_builder(layout):
    fa_desc, fb_desc = layout

    def build(group):
        return _pick_operand(fa_desc, group), _pick_operand(fb_desc, group)

    return build

#: fused id -> human-readable name (for the disassembler and tests).
FUSED_NAMES: dict[int, str] = {}
#: fused id -> number of raw instructions the superinstruction covers.
FUSED_ARITY: dict[int, int] = {}
#: fused id -> the declarative ``(fa, fb)`` operand layout from
#: ``_PATTERNS``; the dispatch-arm generator substitutes these when
#: expanding a superinstruction's component semantics.
FUSED_LAYOUT: dict[int, tuple] = {}

# Head opcode -> candidate patterns, longest first (greedy matching
# prefers the widest superinstruction at each position).
_BY_HEAD: dict[int, list] = {}
for _fid, _seq, _layout, _guard in _PATTERNS:
    for _op in _seq:
        if _op not in FUSABLE_OPS:  # pragma: no cover - table typo
            raise AssertionError(
                f"pattern {_fid} uses {_op.name}, which the opcode spec "
                "does not declare fusable"
            )
    _name = "_".join(op.name for op in _seq)
    if FUSED_NAMES.get(_fid) is not None:  # pragma: no cover - table typo
        raise AssertionError(f"duplicate fused id {_fid}")
    FUSED_NAMES[_fid] = _name
    FUSED_ARITY[_fid] = len(_seq)
    FUSED_LAYOUT[_fid] = _layout
    _BY_HEAD.setdefault(int(_seq[0]), []).append(
        (tuple(int(op) for op in _seq), _fid, _make_builder(_layout), _guard)
    )
for _cands in _BY_HEAD.values():
    _cands.sort(key=lambda cand: -len(cand[0]))

#: Fused ids whose handlers transfer control (conditional branch or
#: return tails).  When the code cache compiles *path-instrumentable*
#: code (``VMConfig.paths``) these are excluded, so every branch and
#: return executes through a raw/IC dispatch arm that carries a
#: Ball-Larus hook — fusion stays time-transparent either way, only
#: the host-level dispatch counts change.
_CONTROL_OPS = frozenset(
    {int(Op.JUMP_IF_FALSE), int(Op.JUMP_IF_TRUE), int(Op.RETURN), int(Op.RETURN_VAL)}
)
CONTROL_FUSED_IDS = frozenset(
    _fid
    for _fid, _seq, _layout, _guard in _PATTERNS
    if any(int(_op) in _CONTROL_OPS for _op in _seq)
)

#: fused id -> raw component opcodes.  The template JIT expands a
#: quickened head back into its components and reuses the per-raw-op
#: templates, so one emitter serves fused and unfused streams alike;
#: the dispatch-arm generator derives each fused handler the same way.
FUSED_COMPONENTS: dict[int, tuple[int, ...]] = {
    _fid: tuple(int(_op) for _op in _seq) for _fid, _seq, _layout, _guard in _PATTERNS
}


def fuse_method(code, ops, costs, control: bool = True):
    """Quicken one method's parallel arrays.

    ``code`` is the raw ``Instr`` list, ``ops``/``costs`` the unzipped
    opcode/cost arrays.  Returns ``(fops, fcosts, fa, fb, sites, span)``
    where the first four are same-length arrays (group heads hold the
    fused opcode, summed cost, and packed operands; interior slots keep
    their raw contents for the de-quickened slow path), ``sites`` is the
    number of groups formed, and ``span`` the raw instructions they
    cover.  Returns ``None`` when nothing fuses.  With
    ``control=False`` only control-free patterns are considered (see
    :data:`CONTROL_FUSED_IDS`).
    """
    n = len(ops)
    targets = jump_targets(code)
    fops = list(ops)
    fcosts = list(costs)
    fa: list = [None] * n
    fb: list = [None] * n
    sites = 0
    span = 0
    pc = 0
    while pc < n:
        candidates = _BY_HEAD.get(ops[pc])
        if candidates is None:
            pc += 1
            continue
        for seq, fid, build, guard in candidates:
            if not control and fid in CONTROL_FUSED_IDS:
                continue
            end = pc + len(seq)
            if end > n or tuple(ops[pc:end]) != seq:
                continue
            # Control may branch to the head but never into the interior.
            if any(p in targets for p in range(pc + 1, end)):
                continue
            group = code[pc:end]
            if guard is not None and not guard(group):
                continue
            fops[pc] = fid
            fcosts[pc] = sum(costs[pc:end])
            operands = build(group)
            fa[pc] = operands[0]
            fb[pc] = operands[1]
            sites += 1
            span += end - pc
            pc = end
            break
        else:
            pc += 1
    if sites == 0:
        return None
    return fops, fcosts, fa, fb, sites, span
