"""The instruction record.

Instructions are mutable (the optimizer rewrites operands in place when
relocating jump targets) but cheap: ``__slots__`` keeps them compact, and
the interpreter unzips instruction lists into parallel arrays before
execution, so per-instruction attribute access is not on the hot path.

``origin`` implements the VM's *inline maps*: on call instructions in
optimizer-rewritten code it records ``(function index, pc)`` of the
call site in the function's original (baseline) bytecode — including
sites spliced in from inlined callees, which keep their own baseline
coordinates.  Profilers attribute samples through it, so the dynamic
call graph always speaks baseline coordinates no matter how many times
methods are recompiled (this is how Jikes RVM maps machine-code samples
back to bytecode call sites).  ``None`` means "this very position":
baseline code needs no map.
"""

from __future__ import annotations

from repro.bytecode.opcodes import Op


class Instr:
    """One VM instruction: an opcode, up to two integer operands, and an
    optional baseline-coordinate origin for call instructions."""

    __slots__ = ("op", "a", "b", "origin")

    def __init__(
        self,
        op: Op,
        a: int | None = None,
        b: int | None = None,
        origin: tuple[int, int] | None = None,
    ):
        self.op = op
        self.a = a
        self.b = b
        self.origin = origin

    def copy(self) -> "Instr":
        return Instr(self.op, self.a, self.b, self.origin)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instr):
            return NotImplemented
        return self.op == other.op and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.op, self.a, self.b))

    def __repr__(self) -> str:
        parts = [self.op.name]
        if self.a is not None:
            parts.append(str(self.a))
        if self.b is not None:
            parts.append(str(self.b))
        return " ".join(parts)
