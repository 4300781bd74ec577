"""Mini VM bytecode: instruction set, containers, assembler, verifier."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "Assembler": ".assembler",
        "AssemblerError": ".assembler",
        "assemble": ".assembler",
        "disassemble": ".disassembler",
        "disassemble_function": ".disassembler",
        "FunctionInfo": ".function",
        "Instr": ".instr",
        "CALL_OPS": ".opcodes",
        "JUMP_OPS": ".opcodes",
        "OPCODE_SIZE": ".opcodes",
        "Op": ".opcodes",
        "TERMINATOR_OPS": ".opcodes",
        "ClassInfo": ".program",
        "Program": ".program",
        "ProgramError": ".program",
        "VerifyError": ".verifier",
        "verify_function": ".verifier",
        "verify_program": ".verifier",
    },
)
