"""Flat operator chains of any length compile, run and print.

``1 + 1 + ... + 1`` has no nesting, but every binary operator is
left-associative, so its AST is a left spine as long as the chain.  The
type checker, the code generator and the printer walk that spine with a
loop; these chains are far longer than the host stack is deep.
"""

import dataclasses

import pytest

from repro.bytecode.opcodes import Op
from repro.frontend.codegen import compile_source
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.printer import print_program

from tests.helpers import run_source

TERMS = 10_000


def flatten(node) -> list:
    """Every AST node in pre-order as (class, scalar fields), tokens left
    out; a loop, not recursion, so a 10 000-deep spine is fine."""
    out, work = [], [node]
    while work:
        node = work.pop()
        if isinstance(node, list):
            out.append(("list", len(node)))
            work.extend(reversed(node))
        elif dataclasses.is_dataclass(node) and not isinstance(node, ast.TypeExpr):
            children, scalars = [], []
            for field in dataclasses.fields(node):
                if field.name in ("token", "inferred_type"):
                    continue
                value = getattr(node, field.name)
                if isinstance(value, list) or (
                    dataclasses.is_dataclass(value) and not isinstance(value, ast.TypeExpr)
                ):
                    children.append(value)
                else:
                    scalars.append((field.name, value))
            out.append((type(node).__name__, tuple(scalars)))
            work.extend(reversed(children))
        else:
            out.append(node)
    return out


def plus_chain() -> tuple[str, int]:
    return " + ".join(["1"] * TERMS), TERMS


def mixed_chain() -> tuple[str, int]:
    terms = [str(i % 7) for i in range(TERMS)]
    signs = ["+" if i % 3 else "-" for i in range(TERMS - 1)]
    text, value = terms[0], int(terms[0])
    for sign, term in zip(signs, terms[1:]):
        text += f" {sign} {term}"
        value = value + int(term) if sign == "+" else value - int(term)
    return text, value


def and_chain(last: str) -> tuple[str, int]:
    return " && ".join(["k == 3"] * (TERMS - 1) + [last]), 1 if last == "true" else 0


CHAINS = {
    "plus": plus_chain(),
    "mixed-plus-minus": mixed_chain(),
    "and-true": and_chain("true"),
    "and-false": and_chain("k < 3"),
}


def program(chain: str) -> str:
    return f"def main() {{\n  var k = 3;\n  var x = {chain};\n  print(x);\n}}\n"


@pytest.mark.parametrize("name", CHAINS)
def test_chain_compiles_and_runs_to_the_right_answer(name):
    chain, expected = CHAINS[name]
    assert run_source(program(chain)) == [expected]


@pytest.mark.parametrize("name", CHAINS)
def test_chain_prints_and_reparses_to_the_same_ast(name):
    tree = parse(program(CHAINS[name][0]))
    text = print_program(tree)
    again = parse(text)
    assert flatten(again) == flatten(tree)
    assert print_program(again) == text


@pytest.mark.parametrize(
    "op,jump", [("&&", Op.JUMP_IF_FALSE), ("||", Op.JUMP_IF_TRUE)], ids=["and", "or"]
)
def test_short_circuit_chain_code_is_what_recursion_emitted(op, jump):
    """``a op b op c`` is ``(a op b) op c``: the inner operator's code,
    then DUP / conditional jump past the rest / POP / the right operand."""
    source = f"def f(a: bool, b: bool, c: bool): bool {{ return a {op} b {op} c; }} def main() {{ }}"
    code = compile_source(source).function_named("f").code
    assert [(i.op, i.a) for i in code[:10]] == [
        (Op.LOAD, 0),
        (Op.DUP, None),
        (jump, 5),
        (Op.POP, None),
        (Op.LOAD, 1),
        (Op.DUP, None),
        (jump, 9),
        (Op.POP, None),
        (Op.LOAD, 2),
        (Op.RETURN_VAL, None),
    ]
