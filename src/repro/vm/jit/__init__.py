"""Opt-level-3 template JIT (see docs/JIT.md).

Compiles a method's fused, IC-quickened stream into one generated
Python function with the operand stack flattened into locals and IC
receiver classes baked in as guards; de-optimizes back to the
interpreter at tick boundaries, guard failures, and any call or return
the template does not inline — always at an instruction boundary with
bit-exact counters.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "JIT_MAX_CODE": ".compiler",
        "JitCode": ".compiler",
        "compile_into": ".compiler",
        "compile_method": ".compiler",
        "exit_sites": ".compiler",
        "ic_signature": ".compiler",
        "jit_sig": ".compiler",
        "vm_jit_sig": ".compiler",
        "JitManager": ".manager",
    },
)
