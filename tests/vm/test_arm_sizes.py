"""Hot dispatch arms cannot grow without this file failing.

``_loop``'s bytecode is split by arm, using the line range of each arm
body that ``test_dispatch_tree.arm_spans`` finds in the generated
source, and each listed arm's instruction count is held to the committed
ceiling below.  The table lists every arm at 10 000 ppm or more in
``dispatchgen.ARM_WEIGHTS`` plus the call and return arms; the ceilings
are the counts the committed generator produces, so one statement more
in any listed arm fails.  Re-measure with ``python -m
tests.vm.test_arm_sizes`` after a change that makes an arm *shorter*.

Bytecode differs between CPython minor versions, so the counts are held
on 3.11 only.
"""

from __future__ import annotations

import dis
import sys

import pytest

from repro.vm import _dispatch, dispatchgen
from tests.vm.test_dispatch_tree import arm_spans

#: Arm -> instructions in its body on CPython 3.11.
ARM_SIZES = {
    "F_LOAD_GETFIELD": 47,
    "F_LOAD_LOAD": 30,
    "F_STORE_LOAD": 26,
    "JUMP": 122,
    "LOAD": 16,
    "ALOAD": 81,
    "GETFIELD": 37,
    "JUMP_IF_FALSE": 72,
    "F_PUSH_MOD": 71,
    "F_LOAD_PUSH_ADD_STORE": 26,
    "PUSH": 14,
    "IC_CALL_VIRTUAL": 629,
    "STORE": 15,
    "DUP": 14,
    "F_LT_JIF": 55,
    "F_LOAD_LOAD_LT_JIF": 55,
    "ADD": 21,
    "ASTORE": 85,
    "F_LOAD_PUSH_MUL": 24,
    "MOD": 66,
    "POP": 11,
    "F_LOAD_PUSH": 28,
    "PUTFIELD": 41,
    "F_PUSH_ADD": 22,
    "F_LOAD_ADD": 24,
    "LT": 23,
    "F_PUSH_ADD_STORE": 23,
    "RETURN_VAL": 111,
    "RETURN": 100,
    "IC_CALL_STATIC": 367,
    "CALL_VIRTUAL": 382,
    "CALL_STATIC": 314,
}


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
    assert hot | calls <= ARM_SIZES.keys()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytecode is per minor version")
def test_no_listed_arm_outgrows_its_ceiling():
    source = dispatchgen.TARGET.read_text()
    sizes = arm_sizes(source, _dispatch._loop.__code__)
    grown = {
        name: (sizes[name], limit)
        for name, limit in ARM_SIZES.items()
        if sizes[name] > limit
    }
    assert not grown, f"arm (instructions, ceiling): {grown}"


if __name__ == "__main__":
    text = dispatchgen.TARGET.read_text()
    measured = arm_sizes(text, _dispatch._loop.__code__)
    for arm in sorted(measured, key=lambda n: -dispatchgen.ARM_WEIGHTS[n]):
        print(f"{arm} {measured[arm]} {dispatchgen.ARM_WEIGHTS[arm]}")
