"""Source positions are resolved only on the error path.

Tokens carry an offset into a shared :class:`Source`; ``location`` on a
token, an AST node or an error goes through :meth:`Source.location`.
Counting its calls pins the contract exactly: a program that compiles
resolves no location at all, and each diagnostic resolves one.
"""

import pytest

from repro.benchsuite.suite import benchmark_names, get_benchmark
from repro.frontend.codegen import compile_source
from repro.lang.errors import MiniError, Source, SourceLocation
from repro.lang.lexer import tokenize
from repro.lang.parser import parse

from tests.frontend.test_diagnostics import HIERARCHY, LEX, PARSE, TYPECHECK


@pytest.fixture
def resolutions(monkeypatch):
    """A list that grows by one offset per location resolved."""
    seen: list[int] = []
    resolve = Source.location

    def counting(self, offset):
        seen.append(offset)
        return resolve(self, offset)

    monkeypatch.setattr(Source, "location", counting)
    return seen


def test_compiling_the_benchsuite_resolves_no_location(resolutions):
    for name in benchmark_names():
        compile_source(get_benchmark(name).source("tiny"), f"{name}.mini")
    assert resolutions == []


@pytest.mark.parametrize("source,expected", LEX + PARSE + HIERARCHY + TYPECHECK)
def test_each_diagnostic_resolves_exactly_one_location(resolutions, source, expected):
    with pytest.raises(MiniError) as info:
        compile_source(source, "g.mini")
    assert str(info.value) == expected
    assert len(resolutions) == (0 if info.value.location is None else 1)


def test_token_and_node_locations_resolve_when_read():
    source = "def main() {\n  var x = 1 +\n    2;\n}\n"
    tokens = tokenize(source, "r.mini")
    plus = next(t for t in tokens if t.value is None and t.kind.value == "+")
    assert plus.offset == source.index("+")
    assert plus.location == SourceLocation(2, 13, "r.mini")
    decl = parse(source, "r.mini").functions[0].body[0]
    assert decl.location == SourceLocation(2, 3, "r.mini")
    assert decl.initializer.location == plus.location
    assert decl.initializer.right.location == SourceLocation(3, 5, "r.mini")


def test_source_maps_every_offset_to_its_line_and_column():
    text = "ab\n\ncd\r\ne"
    source = Source(text, "m.mini")
    line, column = 1, 1
    for offset, char in enumerate(text + " "):  # one past the end: EOF
        assert source.location(offset) == SourceLocation(line, column, "m.mini")
        line, column = (line + 1, 1) if char == "\n" else (line, column + 1)
