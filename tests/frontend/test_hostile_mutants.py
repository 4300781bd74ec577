"""Hostile input at the front end: byte-level mutants of real programs.

Each mutant of a corpus program must either compile to a ``Program`` or
be rejected with a :class:`MiniError` whose location (when it has one)
lies inside the source: a real line, and a column at most one past that
line's end.  Any other exception — ``RecursionError``, ``KeyError``,
``AssertionError``, ``IndexError`` — is a front-end bug.  Mutants are
seeded, so a failure names a reproducible input.
"""

import random

import pytest

from repro.benchsuite.suite import benchmark_names, get_benchmark
from repro.bytecode.program import Program
from repro.frontend.codegen import compile_source
from repro.lang.errors import MiniError

SEED = 20261017
MUTANTS = 400

#: Fragments worth splicing in: delimiters, comment openers and closers,
#: keywords in the wrong place, digit-prefixed names, line breaks, and
#: bytes that are not UTF-8 on their own.
FRAGMENTS = [
    b"(", b")", b"{", b"}", b"[", b"]", b";", b",", b".", b"=", b"==", b"&&", b"||",
    b"!", b"-", b"/", b"/*", b"*/", b"//", b"\n", b"\r\n", b"\t", b"0", b"9x",
    b"class", b"def", b"var", b"new", b"this", b"null", b"return", b"void", b"int[]",
    b"main", b"init", b"\xff", b"\xc3\xa9", b"\xe2\x82",
]


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One to three byte-level edits of ``data``."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        kind = rng.randrange(6)
        if kind == 0 and at < len(data):  # overwrite one byte
            data = data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
        elif kind == 1:  # delete a short span
            data = data[:at] + data[at + rng.randint(1, 8):]
        elif kind == 2:  # splice in a fragment
            data = data[:at] + rng.choice(FRAGMENTS) + data[at:]
        elif kind == 3:  # duplicate a span
            span = data[at:at + rng.randint(1, 40)]
            data = data[:at] + span + data[at:]
        elif kind == 4:  # truncate
            data = data[:at]
        else:  # move a span elsewhere
            end = at + rng.randint(1, 40)
            span, rest = data[at:end], data[:at] + data[end:]
            to = rng.randrange(len(rest) + 1)
            data = rest[:to] + span + rest[to:]
    return data


def mutants():
    rng = random.Random(SEED)
    corpus = [get_benchmark(name).source("tiny").encode() for name in benchmark_names()]
    for index in range(MUTANTS):
        data = mutate(rng, rng.choice(corpus))
        # Bytes that do not decode reach the front end as U+FFFD, the way
        # an editor would show them; the CLI refuses such files outright.
        yield index, data.decode("utf-8", errors="replace")


def test_every_mutant_compiles_or_is_a_located_diagnostic():
    outcomes = {"compiled": 0, "rejected": 0}
    for index, source in mutants():
        try:
            result = compile_source(source, "mutant.mini")
        except MiniError as error:
            outcomes["rejected"] += 1
            location = error.location
            if location is None:
                continue
            lines = source.split("\n")
            assert location.filename == "mutant.mini", index
            assert 1 <= location.line <= len(lines), (index, str(error))
            assert 1 <= location.column <= len(lines[location.line - 1]) + 1, (
                index,
                str(error),
            )
        except Exception as error:  # noqa: BLE001 - the point of the test
            pytest.fail(f"mutant {index} raised {type(error).__name__}: {error}")
        else:
            assert isinstance(result, Program), index
            outcomes["compiled"] += 1
    # The mutants exercise both outcomes, not just the parser's first error.
    assert outcomes["compiled"] > 0 and outcomes["rejected"] > MUTANTS // 2, outcomes
