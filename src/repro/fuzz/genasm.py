"""Seeded generator of hand-assembled bytecode subjects.

The Mini frontend only emits structured code, so several interesting
shapes can never reach the interpreter through :mod:`repro.fuzz.genprog`:

* **every measured superinstruction window** — a window drawn from
  :data:`repro.vm.fuse.FUSED_COMPONENTS`, operands typed from its
  components' spec rows by :class:`Window`, run in a counted loop:
  sometimes with a branch landing on its second component (fusion must
  refuse the window; the differential checker proves the refusal is
  transcript-neutral), and as a faulting shape with one operand made
  bad on a last pass;
* **interior jump targets inside fusable windows** — a branch landing
  in the middle of what would otherwise quicken into one
  superinstruction;
* **megamorphic sites over unrelated classes** — the frontend requires
  a common supertype, the assembler does not;
* **missing-selector traps** — a receiver class that simply lacks the
  method, after the site has been quickened by well-behaved receivers;
* **raw guest faults with hand-placed pcs** — ``PUSH 0; MOD`` (the
  fuse-time guard must keep it unfused and the raw handler must fault),
  null field reads, out-of-range array indexing, unbounded recursion
  into the frame limit, and runaway loops into the step budget;
* **a leaf that writes, then faults** — a jump-free setter whose
  divisor argument walks down to zero, so the frameless closure bails
  with its field write still deferred and the generic replay has to
  fault exactly like a never-quickened call.

Each generated program is a ``func main/0`` whose body concatenates a
few randomly chosen *shapes*.  Every shape is stack-neutral, owns its
label namespace, and allocates its locals from a shared counter, so any
combination assembles.  At most one *faulting* shape is emitted, always
last — everything before it is ordinary transcript the configurations
must agree on.
"""

from __future__ import annotations

import random

from repro.bytecode.opcodes import Op, spec_of
from repro.vm.fuse import FUSED_COMPONENTS

#: Non-faulting building blocks.
QUIET_SHAPES = (
    "fusable_loop",
    "interior_jump",
    "mega_dispatch",
    "accessor_leaf",
    "static_chain",
)

#: Shapes that end the run with a guest error (at most one, last).
FAULT_SHAPES = (
    "measured_window_fault",
    "push_zero_mod",
    "div_zero",
    "null_getfield",
    "array_oob",
    "missing_selector",
    "deep_recursion",
    "runaway_loop",
    "setter_leaf_fault",
)


def generate_asm(seed: int) -> str:
    """Generate assembly text for one random fuzzing subject.  Every
    subject opens with a measured superinstruction window; which one
    rotates with the seed, so each window of the table is reached within
    one rotation (the campaign gives odd seeds to this generator)."""
    rng = random.Random(seed)
    gen = _AsmGen(rng, turn=seed // 2)
    shapes = ["measured_window", *(rng.choice(QUIET_SHAPES) for _ in range(rng.randint(0, 2)))]
    if rng.random() < 0.5:
        shapes.append(rng.choice(FAULT_SHAPES))
    return gen.build(shapes)


class _AsmGen:
    """Accumulates classes, helper functions, and main-body lines."""

    def __init__(self, rng: random.Random, turn: int = 0):
        self.rng = rng
        #: Rotation through the window table for the subject's first
        #: window (later ones are drawn at random).
        self.turn = turn
        self.decls: list[str] = []
        self.body: list[str] = []
        self.next_local = 0
        self.next_label = 0
        self.uniq = 0

    def local(self) -> int:
        slot = self.next_local
        self.next_local += 1
        return slot

    def label(self, stem: str) -> str:
        self.next_label += 1
        return f"{stem}{self.next_label}"

    def build(self, shapes: list[str]) -> str:
        for shape in shapes:
            getattr(self, "_" + shape)()
        lines = list(self.decls)
        lines.append(f"func main/0 locals={max(self.next_local, 1)} void")
        lines.extend("  " + line for line in self.body)
        lines.append("  RETURN")
        lines.append("end")
        return "\n".join(lines)

    # -- quiet shapes ---------------------------------------------------------

    def _fusable_loop(self) -> None:
        """A counting loop made of back-to-back fusable windows
        (LOAD/PUSH/ADD/STORE, LOAD/PUSH/compare/JUMP_IF_FALSE)."""
        i, acc = self.local(), self.local()
        top = self.label("loop")
        n = self.rng.randint(150, 500)
        step = self.rng.randint(1, 7)
        self.body += [
            "PUSH 0", f"STORE {i}",
            "PUSH 0", f"STORE {acc}",
            f"label {top}",
            f"LOAD {acc}", f"PUSH {step}", "ADD", f"STORE {acc}",
            f"LOAD {i}", "PUSH 1", "ADD", f"STORE {i}",
            f"LOAD {i}", f"PUSH {n}", "LT", f"JUMP_IF_TRUE {top}",
            f"LOAD {acc}", "PRINT",
        ]

    def _interior_jump(self) -> None:
        """A branch target landing between ``LOAD`` and ``PUSH`` of what
        would otherwise fuse into LOAD_PUSH_ADD_STORE.  Fusion must not
        quicken across the interior target, and the split window must
        stay transcript-identical to the unfused run."""
        i, acc = self.local(), self.local()
        mid, done = self.label("mid"), self.label("done")
        n = self.rng.randint(120, 400)
        k = self.rng.randint(1, 9)
        self.body += [
            "PUSH 0", f"STORE {i}",
            f"PUSH {k}", f"STORE {acc}",
            # Straight-line entry seeds the stack with acc, exactly as
            # the back-edge below does, then falls into the window.
            f"LOAD {acc}",
            # pc of `mid` is the PUSH — the *interior* of the fusable
            # run [LOAD acc; PUSH 3; ADD; STORE acc] in the raw stream.
            f"label {mid}",
            "PUSH 3", "ADD", f"STORE {acc}",
            f"LOAD {i}", "PUSH 1", "ADD", f"STORE {i}",
            f"LOAD {i}", f"PUSH {n}", "LT", f"JUMP_IF_FALSE {done}",
            f"LOAD {acc}", f"JUMP {mid}",
            f"label {done}",
            f"LOAD {acc}", "PRINT",
        ]

    def _mega_dispatch(self) -> None:
        """One CALL_VIRTUAL site rotated over N unrelated classes —
        monomorphic to megamorphic depending on N."""
        n = self.rng.choice([2, 3, 4, 9, 12])
        base = self.uniq
        self.uniq += n
        sel = f"g{base}"
        for k in range(n):
            cls = f"M{base + k}"
            self.decls += [
                f"class {cls}",
                f"method {cls}.{sel}/1",
                f"  PUSH {k + 1}",
                "  RETURN_VAL",
                "end",
            ]
        arr, i, acc = self.local(), self.local(), self.local()
        top = self.label("mega")
        rounds = n * self.rng.randint(8, 24)
        self.body += [f"PUSH {n}", "NEW_ARRAY", f"STORE {arr}"]
        for k in range(n):
            self.body += [f"LOAD {arr}", f"PUSH {k}", f"NEW M{base + k}", "ASTORE"]
        self.body += [
            "PUSH 0", f"STORE {i}",
            "PUSH 0", f"STORE {acc}",
            f"label {top}",
            f"LOAD {arr}", f"LOAD {i}", f"PUSH {n}", "MOD", "ALOAD",
            f"CALL_VIRTUAL {sel} 0",
            f"LOAD {acc}", "ADD", f"STORE {acc}",
            f"LOAD {i}", "PUSH 1", "ADD", f"STORE {i}",
            f"LOAD {i}", f"PUSH {rounds}", "LT", f"JUMP_IF_TRUE {top}",
            f"LOAD {acc}", "PRINT",
        ]

    def _accessor_leaf(self) -> None:
        """A getter-shaped method driven hot: LOAD 0; GETFIELD; RETURN_VAL
        is the canonical IC leaf-template pattern."""
        cls = f"A{self.uniq}"
        self.uniq += 1
        self.decls += [
            f"class {cls} fields v",
            f"method {cls}.get/1",
            "  LOAD 0",
            f"  GETFIELD {cls}.v",
            "  RETURN_VAL",
            "end",
            f"method {cls}.set/2",
            "  LOAD 0",
            "  LOAD 1",
            f"  PUTFIELD {cls}.v",
            "  RETURN",
            "end",
        ]
        obj, i, acc = self.local(), self.local(), self.local()
        top = self.label("leaf")
        n = self.rng.randint(120, 450)
        self.body += [
            f"NEW {cls}", f"STORE {obj}",
            f"LOAD {obj}", f"PUSH {self.rng.randint(1, 50)}", "CALL_VIRTUAL set 1",
            "PUSH 0", f"STORE {i}",
            "PUSH 0", f"STORE {acc}",
            f"label {top}",
            f"LOAD {obj}", "CALL_VIRTUAL get 0",
            f"LOAD {acc}", "ADD", f"STORE {acc}",
            f"LOAD {i}", "PUSH 1", "ADD", f"STORE {i}",
            f"LOAD {i}", f"PUSH {n}", "LT", f"JUMP_IF_TRUE {top}",
            f"LOAD {acc}", "PRINT",
        ]

    def _static_chain(self) -> None:
        """A short chain of static calls, the last one self-recursive
        with a bounded countdown."""
        base = self.uniq
        self.uniq += 1
        f1, f2 = f"s{base}a", f"s{base}b"
        depth = self.rng.randint(3, 20)
        self.decls += [
            f"func {f2}/1",
            "  LOAD 0",
            "  PUSH 0",
            "  LE",
            "  JUMP_IF_FALSE recurse",
            "  PUSH 1",
            "  RETURN_VAL",
            "label recurse",
            "  LOAD 0",
            "  PUSH 1",
            "  SUB",
            f"  CALL_STATIC {f2} 1",
            "  LOAD 0",
            "  ADD",
            "  RETURN_VAL",
            "end",
            f"func {f1}/1",
            "  LOAD 0",
            f"  CALL_STATIC {f2} 1",
            "  PUSH 7",
            "  ADD",
            "  RETURN_VAL",
            "end",
        ]
        self.body += [f"PUSH {depth}", f"CALL_STATIC {f1} 1", "PRINT"]

    # -- faulting shapes (always last) ----------------------------------------

    def _measured_window(self, fault: bool = False) -> None:
        """A window of the measured superinstruction table in a counted
        loop.  Each operand it finds on the stack or loads is a local of
        its :class:`Window` type.  The subject's first window is the
        seed's turn in the table and, on every other rotation, also
        entered by a branch landing on its second component (fusion must
        refuse it); any later one is drawn at random, interior entry
        half the time.  With ``fault``, a last pass runs the window once
        more with one operand made bad (null, zero or out of range) where
        some faultable component reads an operand straight from a local."""
        rng = self.rng
        ids = sorted(FUSED_COMPONENTS)
        if self.turn is not None:
            fid, entered = ids[self.turn % len(ids)], self.turn // len(ids) % 2 == 1
            self.turn = None
        else:
            fid, entered = rng.choice(ids), rng.random() < 0.5
        window = Window(FUSED_COMPONENTS[fid])
        cls = f"W{self.uniq}"
        self.uniq += 1
        self.decls += [
            f"class {cls} fields x p arr w",
            f"method {cls}.m/1", "  PUSH 1", "  RETURN_VAL", "end",
        ]
        point, ints, points, sink, rising, i, scratch = (self.local() for _ in range(7))
        good = {"obj": point, "ints": ints, "points": points, "sink": sink}
        slots = [self.local() for _ in window.sources]
        compares = {"cmp", "eqcmp"} & {spec_of(comp).kind for comp in window.comps}
        fill = self.label("fill")
        self.body += [
            f"NEW {cls}", f"STORE {point}",
            *(line for arr in (ints, points, sink) for line in (f"PUSH {LENGTH}", "NEW_ARRAY", f"STORE {arr}")),
            f"LOAD {point}", "PUSH 5", f"PUTFIELD {cls}.x",
            f"LOAD {point}", f"LOAD {point}", f"PUTFIELD {cls}.p",
            f"LOAD {point}", f"LOAD {ints}", f"PUTFIELD {cls}.arr",
            "PUSH 0", f"STORE {i}",
            f"label {fill}",
            f"LOAD {ints}", f"LOAD {i}", f"LOAD {i}", "PUSH 1", "ADD", "ASTORE",
            f"LOAD {points}", f"LOAD {i}", f"LOAD {point}", "ASTORE",
            f"LOAD {i}", "PUSH 1", "ADD", f"STORE {i}",
            f"LOAD {i}", f"PUSH {LENGTH}", "LT", f"JUMP_IF_TRUE {fill}",
            f"PUSH {FIRST}", f"STORE {rising}",
        ]
        refresh, ints_at = [], set()
        for n, value in enumerate(window.sources):
            kind = window.type_of(value)
            if kind in ("int", "any") and (n == 0 or not compares):
                refresh += [f"LOAD {rising}", f"STORE {slots[n]}"]
            elif kind in ("int", "any"):
                self.body += [f"PUSH {MID}", f"STORE {slots[n]}"]
            else:
                self.body += [f"LOAD {good[kind]}", f"STORE {slots[n]}"]
            ints_at.update((n,) if kind in ("int", "any") else ())
        top, end = self.label("win"), FIRST + rng.randint(40, 96)
        self.body += [f"label {top}", *refresh]
        interior = rising if entered else None
        alt = self._window_pass(window, slots, scratch, cls, ints_at, interior)
        self.body += [
            f"LOAD {rising}", "PUSH 1", "ADD", f"STORE {rising}",
            f"LOAD {rising}", f"PUSH {end}", "LT", f"JUMP_IF_TRUE {top}",
        ]
        if alt:
            done = self.label("done")
            self.body += [f"JUMP {done}", *alt, f"label {done}"]
        bad = window.bad_operands() if fault else []
        if bad:
            n, init = rng.choice(bad)
            self.body += [init, f"STORE {slots[n]}"]
            self._window_pass(window, slots, scratch, cls, ints_at - {n}, None)

    def _measured_window_fault(self) -> None:
        self._measured_window(fault=True)

    def _window_pass(self, window, slots, scratch, cls, ints_at, interior):
        """One run of ``window`` with its operands from ``slots``, leftovers
        printed or dropped on every way out.  With ``interior`` (a local
        holding the rising int) every other pass enters the window at its
        second component instead; returns that entry block, to be placed
        off the straight-line path."""
        taken, join = self.label("taken"), self.label("join")
        lines = window.lines(slots, scratch, cls, taken)
        epilogue = window.epilogue(ints_at, scratch)
        self.body += [f"LOAD {slots[n]}" for n in range(len(window.reals))]
        alt = []
        if interior is not None:
            mid, entry = self.label("mid"), self.label("alt")
            self.body += [f"LOAD {interior}", "PUSH 2", "MOD", f"JUMP_IF_FALSE {entry}"]
            lines = [lines[0], f"label {mid}", *lines[1:]]
            alt = [f"label {entry}", lines[0], f"JUMP {mid}"]
        # NOP fences: no neighbour joins the group, no wider window matches.
        self.body += ["NOP", *lines, "NOP", *epilogue]
        if window.tail == "branch":
            self.body += [f"JUMP {join}", f"label {taken}", *epilogue, f"label {join}"]
        return alt

    def _push_zero_mod(self) -> None:
        """``PUSH 0; MOD`` — the fuse-time guard must refuse to build
        the ``PUSH; MOD`` superinstruction, and the raw MOD handler
        faults at the same pc on every configuration."""
        self.body += [f"PUSH {self.rng.randint(1, 99)}", "PUSH 0", "MOD", "PRINT"]

    def _div_zero(self) -> None:
        self.body += [f"PUSH {self.rng.randint(1, 99)}", "PUSH 0", "DIV", "PRINT"]

    def _null_getfield(self) -> None:
        cls = f"N{self.uniq}"
        self.uniq += 1
        self.decls += [f"class {cls} fields v"]
        slot = self.local()
        self.body += [
            "PUSH_NULL", f"STORE {slot}",
            f"LOAD {slot}", f"GETFIELD {cls}.v", "PRINT",
        ]

    def _array_oob(self) -> None:
        size = self.rng.randint(1, 5)
        slot = self.local()
        self.body += [
            f"PUSH {size}", "NEW_ARRAY", f"STORE {slot}",
            f"LOAD {slot}", f"PUSH {size + self.rng.randint(0, 2)}", "ALOAD", "PRINT",
        ]

    def _missing_selector(self) -> None:
        """Quicken a site with a well-behaved receiver, then hand it a
        class that does not implement the selector."""
        base = self.uniq
        self.uniq += 2
        good, bad, sel = f"G{base}", f"B{base}", f"h{base}"
        self.decls += [
            f"class {good}",
            f"method {good}.{sel}/1",
            "  PUSH 11",
            "  RETURN_VAL",
            "end",
            f"class {bad}",
        ]
        obj, i = self.local(), self.local()
        top = self.label("trap")
        self.body += [
            f"NEW {good}", f"STORE {obj}",
            "PUSH 0", f"STORE {i}",
            f"label {top}",
            f"LOAD {obj}", f"CALL_VIRTUAL {sel} 0", "POP",
            f"NEW {bad}", f"STORE {obj}",
            f"LOAD {i}", "PUSH 1", "ADD", f"STORE {i}",
            f"LOAD {i}", "PUSH 3", "LT", f"JUMP_IF_TRUE {top}",
        ]

    def _setter_leaf_fault(self) -> None:
        """A jump-free leaf that updates a field and then divides by an
        argument walking down to zero.  On the last call the IC closure
        returns LEAF_FAIL before its deferred write lands (the JIT exits
        at the call pc) and the generic replay faults inside the callee,
        at the same pc and counters as a run that never had a leaf."""
        cls = f"S{self.uniq}"
        self.uniq += 1
        virtual = self.rng.random() < 0.5
        header = f"method {cls}.bump/3" if virtual else f"func bump{cls}/3"
        call = "CALL_VIRTUAL bump 2" if virtual else f"CALL_STATIC bump{cls} 3"
        self.decls += [
            f"class {cls} fields v",
            header,
            "  LOAD 0",
            "  LOAD 0",
            f"  GETFIELD {cls}.v",
            "  LOAD 1",
            "  ADD",
            f"  PUTFIELD {cls}.v",
            f"  PUSH {self.rng.randint(50, 999)}",
            "  LOAD 2",
            f"  {self.rng.choice(['DIV', 'MOD'])}",
            "  RETURN_VAL",
            "end",
        ]
        obj, d = self.local(), self.local()
        top = self.label("bump")
        self.body += [
            f"NEW {cls}", f"STORE {obj}",
            f"PUSH {self.rng.randint(3, 40)}", f"STORE {d}",
            f"label {top}",
            f"LOAD {obj}", f"PUSH {self.rng.randint(1, 9)}", f"LOAD {d}", call, "PRINT",
            f"LOAD {obj}", f"GETFIELD {cls}.v", "PRINT",
            f"LOAD {d}", "PUSH 1", "SUB", f"STORE {d}",
            f"JUMP {top}",
        ]

    def _deep_recursion(self) -> None:
        fn = f"over{self.uniq}"
        self.uniq += 1
        self.decls += [
            f"func {fn}/1",
            "  LOAD 0",
            "  PUSH 1",
            "  ADD",
            f"  CALL_STATIC {fn} 1",
            "  RETURN_VAL",
            "end",
        ]
        self.body += ["PUSH 0", f"CALL_STATIC {fn} 1", "PRINT"]

    def _runaway_loop(self) -> None:
        """An infinite counting loop: terminated only by ``max_steps``
        (StepLimitExceeded is itself a compared transcript)."""
        slot = self.local()
        top = self.label("spin")
        self.body += [
            "PUSH 0", f"STORE {slot}",
            f"label {top}",
            f"LOAD {slot}", "PUSH 1", "ADD", f"STORE {slot}",
            f"JUMP {top}",
        ]


# -- measured superinstruction windows -----------------------------------------

#: The rising int starts at FIRST and stays below LENGTH, the arrays'
#: length, so ``x - 3`` and ``x - x`` are indices; a window that
#: compares gets MID for its other ints, so the comparison goes both
#: ways (as it does against a compared immediate, 16).
FIRST, MID, LENGTH = 4, 14, 128

#: What each popped operand of a kind must be, deepest first; a kind not
#: listed wants ints, or anything when it only moves the value.
WINDOW_OPERANDS = {
    "getfield": ("obj",),
    "putfield": ("obj", None),
    "guard_method": ("obj",),
    "aload": ("array", "int"),
    "astore": ("sink", "int", None),
    "array_len": ("array",),
    "eqcmp": (None, None),
}
_MOVES = ("dup", "pop", "store", "print", "return")
_NULL_READERS = ("getfield", "putfield", "aload", "astore", "array_len")


class Value:
    """A value a window handles: the component offset that pushed it
    (``None`` when the window found it on the stack), what its consumer
    wants it to be, and the kinds that consume it."""

    def __init__(self, producer):
        self.producer = producer
        self.want = None
        self.consumers: list[str] = []


class Window:
    """A typed symbolic run of one superinstruction window's components,
    from their ``OpSpec`` rows: what each operand must be (an int, an
    object, an array of ints or of objects, an array to store into) and
    which values the window leaves behind.  ``sources`` are the values
    a program must supply — those found on the stack, deepest first,
    then each ``LOAD``'s."""

    def __init__(self, comps):
        self.comps = [Op(c) for c in comps]
        self.reals: list[Value] = []
        self.popped: dict[int, list[Value]] = {}  # offset -> operands, deepest first
        self.made: dict[int, Value] = {}  # offset -> the value it pushed
        stack: list[Value] = []
        for off, comp in enumerate(self.comps):
            spec = spec_of(comp)
            wants = WINDOW_OPERANDS.get(spec.kind) or (
                (None if spec.kind in _MOVES else "int",) * spec.pops
            )
            popped = []
            for want in reversed(wants):
                if stack:
                    value = stack.pop()
                else:
                    value = Value(None)
                    self.reals.insert(0, value)
                value.want = value.want or want
                value.consumers.append(spec.kind)
                popped.insert(0, value)
            self.popped[off] = popped
            if spec.kind == "dup":
                stack += popped * 2
            elif spec.pushes:
                self.made[off] = Value(off)
                stack.append(self.made[off])
        self.left = stack
        self.sources = self.reals + [
            self.made[off] for off, comp in enumerate(self.comps) if comp == Op.LOAD
        ]

    @property
    def tail(self) -> str:
        return spec_of(self.comps[-1]).kind

    def type_of(self, value: Value) -> str:
        """``int``, ``obj``, ``ints``/``points`` (an array, typed by what
        its ``ALOAD`` result feeds), ``sink`` (stored into), or ``any``
        for an operand only ``EQ``/``NE`` read."""
        if value.want == "array":
            aload = next(
                (
                    off for off, comp in enumerate(self.comps)
                    if comp == Op.ALOAD and self.popped[off][0] is value
                ),
                None,
            )
            if aload is None:  # only its length is read
                return "ints"
            return "points" if self.made[aload].want == "obj" else "ints"
        if value.want is None and value.consumers and set(value.consumers) == {"eqcmp"}:
            return "any"
        return value.want or "int"

    def _holds_int(self, value: Value, ints_at) -> bool:
        if value in self.sources:
            return self.sources.index(value) in ints_at
        comp = self.comps[value.producer]
        if comp == Op.GETFIELD:
            return value.want not in ("obj", "array")
        if comp == Op.ALOAD:
            return self.type_of(self.popped[value.producer][0]) == "ints"
        return spec_of(comp).kind not in ("new", "push_null")

    def lines(self, slots, scratch, cls, taken, zero_push=None) -> list[str]:
        """The window's assembler lines: ``LOAD``s from their source's
        slot, ``STORE``s to ``scratch``, fields, the guarded method and
        allocations of class ``cls``, a branch to label ``taken``;
        ``PUSH`` 16 when it is compared, else 3 (0 at offset
        ``zero_push``)."""
        loads = iter(slots[len(self.reals) :])
        lines = []
        for off, comp in enumerate(self.comps):
            value = self.made.get(off)
            if comp == Op.LOAD:
                lines.append(f"LOAD {next(loads)}")
            elif comp == Op.PUSH:
                k = 16 if {"cmp", "eqcmp"} & set(value.consumers) else 3
                lines.append(f"PUSH {0 if off == zero_push else k}")
            elif comp == Op.STORE:
                lines.append(f"STORE {scratch}")
            elif comp == Op.GETFIELD:
                field = {"obj": "p", "array": "arr"}.get(value.want, "x")
                lines.append(f"GETFIELD {cls}.{field}")
            elif comp == Op.PUTFIELD:
                lines.append(f"PUTFIELD {cls}.w")
            elif comp == Op.GUARD_METHOD:
                lines.append(f"GUARD_METHOD m 0 {cls}.m")
            elif comp == Op.NEW:
                lines.append(f"NEW {cls}")
            elif spec_of(comp).kind == "branch":
                lines.append(f"{comp.name} {taken}")
            else:
                lines.append(comp.name)
        return lines

    def epilogue(self, ints_at, scratch) -> list[str]:
        """Print each int the window left, top first, and drop the rest;
        print ``scratch`` when the window only stored ints there.
        ``ints_at`` are the indices of the sources bound to ints."""
        lines = [
            "PRINT" if self._holds_int(v, ints_at) else "POP" for v in reversed(self.left)
        ]
        stored = [self.popped[off][0] for off, comp in enumerate(self.comps) if comp == Op.STORE]
        if stored and all(self._holds_int(v, ints_at) for v in stored):
            lines += [f"LOAD {scratch}", "PRINT"]
        return lines

    def bad_operands(self) -> list[tuple[int, str]]:
        """``(source index, instruction pushing a bad value)`` for each
        source a faultable component reads: null for an object or array,
        zero for a divisor, out of range for an index."""
        bad = []
        for n, value in enumerate(self.sources):
            if self.type_of(value) in ("obj", "ints", "points", "sink"):
                if set(value.consumers) & set(_NULL_READERS):
                    bad.append((n, "PUSH_NULL"))
            elif "divmod" in value.consumers:
                bad.append((n, "PUSH 0"))
            elif {"aload", "astore"} & set(value.consumers):
                bad.append((n, f"PUSH {LENGTH}"))
        return bad
