"""Function (method) containers for compiled Mini code."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bytecode.instr import Instr
from repro.bytecode.opcodes import OPCODE_SIZE


@dataclass
class FunctionInfo:
    """A compiled function or method.

    ``num_params`` counts the receiver for methods (slot 0 is ``this``).
    ``num_locals`` is the total local-slot count including parameters.
    """

    name: str
    code: list[Instr]
    num_params: int
    num_locals: int
    kind: str = "static"  # "static" | "method"
    owner: str | None = None  # declaring class name for methods
    index: int = -1  # position in Program.functions, set on registration
    returns_value: bool = True

    #: Names of parameters/locals for disassembly; optional.
    local_names: list[str] = field(default_factory=list)

    @property
    def qualified_name(self) -> str:
        """``Class.method`` for methods, plain name for functions."""
        if self.owner is not None:
            return f"{self.owner}.{self.name}"
        return self.name

    @property
    def selector(self) -> tuple[str, int]:
        """Dispatch selector: method name and explicit-argument count."""
        return (self.name, self.num_params - (1 if self.kind == "method" else 0))

    def bytecode_size(self) -> int:
        """Abstract encoded size in bytes (input to inlining heuristics)."""
        return sum(OPCODE_SIZE[instr.op] for instr in self.code)

    def copy_code(self) -> list[Instr]:
        """A deep copy of the instruction list (for optimizer rewrites)."""
        return [instr.copy() for instr in self.code]

    def __repr__(self) -> str:
        return (
            f"FunctionInfo({self.qualified_name}/{self.num_params}, "
            f"{len(self.code)} instrs)"
        )
