"""Hot dispatch arms cannot grow without this file failing.

``_loop``'s bytecode is split by arm, using the line range of each arm
body that ``test_dispatch_tree.arm_spans`` finds in the generated
source, and each listed arm's instruction count is held to the committed
ceiling below.  The table lists every arm at 10 000 ppm or more in
``dispatchgen.ARM_WEIGHTS`` plus the call and return arms, a
superinstruction by its components (the measured table numbers them);
the ceilings are the counts the committed generator produces, so one
statement more in any listed arm fails.  Re-measure with ``python -m
tests.vm.test_arm_sizes`` after a change that makes an arm *shorter*,
or after ``dispatchgen --measure`` picks new windows.

Bytecode differs between CPython minor versions, so the counts are held
on 3.11 only.
"""

from __future__ import annotations

import dis
import sys

import pytest

from repro.bytecode.opcodes import Op
from repro.vm import _dispatch, dispatchgen
from tests.vm.test_dispatch_tree import arm_spans

#: Arm (an opcode name, or a superinstruction's components) ->
#: instructions in its body on CPython 3.11.
ARM_SIZES = {
    "JUMP": 121,
    ("LOAD", "PUSH", "ADD", "STORE"): 26,
    "IC_CALL_VIRTUAL": 620,
    "STORE": 15,
    ("LOAD", "LOAD"): 30,
    ("LOAD", "LOAD", "LT", "JUMP_IF_FALSE"): 55,
    "JUMP_IF_FALSE": 72,
    ("LOAD", "GETFIELD", "LOAD"): 48,
    "PUSH": 14,
    "LOAD": 16,
    ("LOAD", "PUSH"): 28,
    ("LOAD", "LOAD", "GETFIELD", "LT", "JUMP_IF_FALSE"): 72,
    "RETURN_VAL": 109,
    ("LOAD", "GETFIELD"): 36,
    ("LOAD", "PUSH", "MOD"): 62,
    "ADD": 21,
    ("LOAD", "PUSH", "LT", "JUMP_IF_FALSE"): 53,
    "MUL": 21,
    ("LOAD", "PUSH", "MUL", "PUSH", "ADD", "PUSH", "MOD", "STORE"): 68,
    ("LOAD", "GETFIELD", "LOAD", "GETFIELD"): 67,
    ("ALOAD", "STORE", "LOAD"): 76,
    ("ADD", "PUSH", "MOD", "STORE"): 68,
    "POP": 11,
    ("LOAD", "LOAD", "GETFIELD"): 50,
    "SUB": 21,
    "ALOAD": 78,
    "RETURN": 98,
    ("LT", "JUMP_IF_FALSE"): 55,
    "ASTORE": 82,
    "IC_CALL_STATIC": 360,
    "CALL_VIRTUAL": 375,
    "CALL_STATIC": 309,
}


def arm_name(arm) -> str:
    """The generated loop's name for an ARM_SIZES key."""
    return arm if isinstance(arm, str) else dispatchgen.arm_name(Op[name] for name in arm)


def arm_sizes(source: str, code) -> dict[str, int]:
    """Arm name -> instructions of ``code`` on the lines of its body."""
    arm_of = {line: name for name, span in arm_spans(source).items() for line in span}
    counts = dict.fromkeys(set(arm_of.values()), 0)
    for instr in dis.get_instructions(code):
        name = arm_of.get(instr.positions.lineno)
        if name is not None:
            counts[name] += 1
    return counts


def test_the_table_lists_every_hot_arm_and_the_call_and_return_arms():
    hot = {name for name, ppm in dispatchgen.ARM_WEIGHTS.items() if ppm >= 10_000}
    calls = {"IC_CALL_STATIC", "CALL_VIRTUAL", "CALL_STATIC", "RETURN", "RETURN_VAL"}
    assert hot | calls <= {arm_name(arm) for arm in ARM_SIZES}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytecode is per minor version")
def test_no_listed_arm_outgrows_its_ceiling():
    source = dispatchgen.TARGET.read_text()
    sizes = arm_sizes(source, _dispatch._loop.__code__)
    grown = {
        arm_name(arm): (sizes[arm_name(arm)], limit)
        for arm, limit in ARM_SIZES.items()
        if sizes[arm_name(arm)] > limit
    }
    assert not grown, f"arm (instructions, ceiling): {grown}"


if __name__ == "__main__":
    text = dispatchgen.TARGET.read_text()
    measured = arm_sizes(text, _dispatch._loop.__code__)
    for arm in sorted(measured, key=lambda n: -dispatchgen.ARM_WEIGHTS[n]):
        print(f"{arm} {measured[arm]} {dispatchgen.ARM_WEIGHTS[arm]}")
