"""Opt-level-3 template JIT (see docs/JIT.md).

Compiles a method's fused, IC-quickened stream into one generated
Python function with the operand stack flattened into locals and IC
receiver classes baked in as guards; de-optimizes back to the
interpreter at tick boundaries, guard failures, and any call or return
the template does not inline — always at an instruction boundary with
bit-exact counters.
"""

from repro.vm.jit.compiler import (
    JIT_MAX_CODE,
    JitCode,
    compile_into,
    compile_method,
    exit_sites,
    ic_signature,
    jit_sig,
    vm_jit_sig,
)
from repro.vm.jit.manager import JitManager

__all__ = [
    "JIT_MAX_CODE",
    "JitCode",
    "JitManager",
    "compile_into",
    "compile_method",
    "exit_sites",
    "ic_signature",
    "jit_sig",
    "vm_jit_sig",
]
