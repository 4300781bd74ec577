"""Seeded generator of hand-assembled bytecode subjects.

The Mini frontend only emits structured code, so several interesting
shapes can never reach the interpreter through :mod:`repro.fuzz.genprog`:

* **interior jump targets inside fusable windows** — a branch landing
  in the middle of what would otherwise quicken into one
  superinstruction (fusion must refuse the window; the differential
  checker proves the refusal is transcript-neutral);
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
    """Generate assembly text for one random fuzzing subject."""
    rng = random.Random(seed)
    gen = _AsmGen(rng)
    shapes = [rng.choice(QUIET_SHAPES) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        shapes.append(rng.choice(FAULT_SHAPES))
    return gen.build(shapes)


class _AsmGen:
    """Accumulates classes, helper functions, and main-body lines."""

    def __init__(self, rng: random.Random):
        self.rng = rng
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

    def _push_zero_mod(self) -> None:
        """``PUSH 0; MOD`` — the fuse-time guard must refuse to build
        F_PUSH_MOD, and the raw MOD handler faults at the same pc on
        every configuration."""
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
