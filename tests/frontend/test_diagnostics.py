"""Golden table of front-end diagnostics: the full ``str(error)``.

Every row is a malformed program and the exact text the toolchain
reports for it, ``file:line:col: message`` (no location for the few
whole-program errors).  The rows cover each layer that can reject a
program: the lexer, the parser (including the deep-nesting report that
``compile_source`` makes after the passes behind the parser run out of
host stack), class-hierarchy analysis and the type checker.  A change
to how locations are tracked or resolved must leave every row as it is.
"""

import pytest

from repro.frontend.codegen import compile_source
from repro.lang.errors import LexError, MiniError, ParseError, TypeError_

FILE = "g.mini"


def main(body: str, prelude: str = "") -> str:
    """A program whose ``main`` holds ``body`` on its second line."""
    return f"{prelude}def main() {{\n  {body}\n}}\n"


LEX = [
    pytest.param(
        "def main() {\n  /* one\n     two */ @\n}\n",
        "g.mini:3:13: unexpected character '@'",
        id="unexpected-after-multiline-comment",
    ),
    pytest.param(
        "def main() {\n  var x = 1; /* never\n  closed\n",
        "g.mini:2:14: unterminated block comment",
        id="unterminated-comment",
    ),
    pytest.param(
        main("var x = 12ab;"),
        "g.mini:2:11: identifier may not start with a digit",
        id="digit-prefix",
    ),
    pytest.param(
        "def main() {\r\n\tvar x = #;\r\n}\r\n",
        "g.mini:2:10: unexpected character '#'",
        id="crlf-and-tab",
    ),
    pytest.param(
        "// header\n\ndef main() { var é = 1; }\n",
        "g.mini:3:18: unexpected character 'é'",
        id="non-ascii-letter",
    ),
]

PARSE = [
    pytest.param(
        "def main() { }\nvar x = 1;\n",
        "g.mini:2:1: expected 'class' or 'def' at top level, found var",
        id="top-level",
    ),
    pytest.param(
        "class A {\n  var x: int;\n  int y;\n}\n" + main("print(1);"),
        "g.mini:3:3: expected 'var' or 'def' in class body, found int",
        id="class-body",
    ),
    pytest.param(
        main("var x = 1 + ;"),
        "g.mini:2:15: expected an expression, found ;",
        id="expression",
    ),
    pytest.param(
        main("print(1)"),
        "g.mini:3:1: expected ';', found }",
        id="expected-token",
    ),
    pytest.param(
        "def main() {\n  print(1);\n  // no closing brace\n",
        "g.mini:4:1: expected an expression, found <eof>",
        id="eof",
    ),
    pytest.param(
        main("1 = 2;"),
        "g.mini:2:3: invalid assignment target",
        id="assignment-target",
    ),
    pytest.param(
        "def f(x: void) { }\n" + main(""),
        "g.mini:1:10: 'void' is only valid as a return type",
        id="void-param",
    ),
    pytest.param(
        main("var a = new void[3];"),
        "g.mini:2:15: expected 'identifier', found void",
        id="new-void",
    ),
    pytest.param(
        main("var x = a.1;"),
        "g.mini:2:13: expected 'identifier', found int-literal(1)",
        id="member-name",
    ),
    pytest.param(
        # The parser takes one host frame per prefix operator; the type
        # checker takes more, so this runs out of stack after parsing and
        # is reported at the most deeply nested node.
        main("var x = " + "-" * 600 + "1;"),
        "g.mini:2:611: expression nested too deeply",
        id="deep-unary-via-deepest",
    ),
    pytest.param(
        main("while (" + "!" * 600 + "true) { }"),
        "g.mini:2:610: expression nested too deeply",
        id="deep-not-via-deepest",
    ),
]

HIERARCHY = [
    pytest.param(
        "class A { }\nclass A { }\n" + main(""),
        "g.mini:2:1: duplicate class 'A'",
        id="duplicate-class",
    ),
    pytest.param(
        "class A extends B { }\n" + main(""),
        "g.mini:1:1: class 'A' extends unknown class 'B'",
        id="unknown-superclass",
    ),
    pytest.param(
        "class A extends B { }\nclass B extends A { }\n" + main(""),
        "inheritance cycle involving class 'A'",
        id="cycle",
    ),
    pytest.param(
        "class A {\n  var x: int;\n  var x: bool;\n}\n" + main(""),
        "g.mini:3:3: duplicate field 'x' in class 'A'",
        id="duplicate-field",
    ),
    pytest.param(
        "class A { var x: int; }\nclass B extends A {\n  var x: int;\n}\n" + main(""),
        "g.mini:3:3: field 'x' in class 'B' shadows an inherited field",
        id="field-shadowing",
    ),
    pytest.param(
        "class A {\n  def f() { }\n  def f() { }\n}\n" + main(""),
        "g.mini:3:3: duplicate method 'f'/0 in class 'A'",
        id="duplicate-method",
    ),
    pytest.param(
        "class A { def f(): int { return 1; } }\n"
        "class B extends A {\n  def f(): bool { return true; }\n}\n" + main(""),
        "g.mini:3:3: method B.f overrides A.f with an incompatible signature",
        id="incompatible-override",
    ),
]

TYPECHECK = [
    # Operand rules quote the operator and point at the operand.
    pytest.param(
        main("var x = 1 + true;"),
        "g.mini:2:15: right operand of '+' must be int, found bool",
        id="right-operand-arith",
    ),
    pytest.param(
        main("var x = true * 2;"),
        "g.mini:2:11: left operand of '*' must be int, found bool",
        id="left-operand-arith",
    ),
    pytest.param(
        main("var x = true + 1 + 2 + 3;"),
        "g.mini:2:11: left operand of '+' must be int, found bool",
        id="left-operand-deep-in-chain",
    ),
    pytest.param(
        main("var x = 1 + 2 - false + 3;"),
        "g.mini:2:19: right operand of '-' must be int, found bool",
        id="right-operand-inside-chain",
    ),
    pytest.param(
        main("var x = (1 < 2) + 3;"),
        "g.mini:2:14: left operand of '+' must be int, found bool",
        id="left-operand-is-an-operator",
    ),
    pytest.param(
        main("var b = 1 <= true;"),
        "g.mini:2:16: right operand of '<=' must be int, found bool",
        id="compare-operand",
    ),
    pytest.param(
        main("var b = 1 && true;"),
        "g.mini:2:11: left operand of '&&' must be bool, found int",
        id="logical-and-operand",
    ),
    pytest.param(
        main("var b = true || 0;"),
        "g.mini:2:19: right operand of '||' must be bool, found int",
        id="logical-or-operand",
    ),
    pytest.param(
        main("var b = 1 == true;"),
        "g.mini:2:13: cannot compare int with bool",
        id="equality",
    ),
    pytest.param(
        main("var b = -true;"),
        "g.mini:2:12: operand of unary '-' must be int, found bool",
        id="unary-minus",
    ),
    pytest.param(
        main("var b = !1;"),
        "g.mini:2:12: operand of '!' must be bool, found int",
        id="unary-not",
    ),
    pytest.param(
        main("if (1) { }"),
        "g.mini:2:7: if condition must be bool, found int",
        id="if-condition",
    ),
    pytest.param(
        main("while (null) { }"),
        "g.mini:2:10: while condition must be bool, found null",
        id="while-condition",
    ),
    pytest.param(
        main("var a = new int[3];\n  var x = a[true];"),
        "g.mini:3:13: array index must be int, found bool",
        id="array-index",
    ),
    pytest.param(
        main("var a = new int[false];"),
        "g.mini:2:19: array length must be int, found bool",
        id="array-length",
    ),
    pytest.param(
        main("var x = 3;\n  var y = x[0];"),
        "g.mini:3:12: cannot index into int",
        id="index-non-array",
    ),
    # Names, declarations and assignment.
    pytest.param(
        main("print(y);"),
        "g.mini:2:9: undeclared variable 'y' (fields need an explicit receiver: this.y)",
        id="undeclared-variable",
    ),
    pytest.param(
        main("y = 1;"),
        "g.mini:2:3: assignment to undeclared variable 'y' "
        "(fields need an explicit receiver: this.y)",
        id="assign-undeclared",
    ),
    pytest.param(
        main("var x = 1;\n  var x = 2;"),
        "g.mini:3:3: variable 'x' already declared in this scope",
        id="redeclared",
    ),
    pytest.param(
        main("var x = null;"),
        "g.mini:2:3: cannot infer a type for 'x' from null; annotate the declaration",
        id="infer-from-null",
    ),
    pytest.param(
        main("var x: bool = 1;"),
        "g.mini:2:3: cannot initialize bool variable 'x' with int",
        id="initialize",
    ),
    pytest.param(
        main("var x = 1;\n  x = true;"),
        "g.mini:3:3: cannot assign bool to int",
        id="assign",
    ),
    pytest.param(
        main("var x: Missing = null;"),
        "g.mini:2:3: unknown class 'Missing'",
        id="unknown-declared-type",
    ),
    pytest.param(
        main("var x = new Missing();"),
        "g.mini:2:11: unknown class 'Missing'",
        id="unknown-new-class",
    ),
    pytest.param(
        main("var x = this;"),
        "g.mini:2:11: 'this' outside a method",
        id="this-outside-method",
    ),
    # Calls, fields and methods.
    pytest.param(
        main("g();"),
        "g.mini:2:3: unknown function 'g'",
        id="unknown-function",
    ),
    pytest.param(
        "def f(a: int, b: bool) { }\n" + main("f(1, 2);"),
        "g.mini:3:8: argument 2 of f(): expected bool, found int",
        id="argument-type",
    ),
    pytest.param(
        "def f(a: int) { }\n" + main("f();"),
        "g.mini:3:3: f() takes 1 argument(s), got 0",
        id="argument-count",
    ),
    pytest.param(
        main("print(null);"),
        "g.mini:2:3: cannot print null",
        id="print-null",
    ),
    pytest.param(
        main("print(1, 2);"),
        "g.mini:2:3: print() takes exactly one argument",
        id="print-arity",
    ),
    pytest.param(
        main("var n = len(3);"),
        "g.mini:2:11: len() needs an array, found int",
        id="len-non-array",
    ),
    pytest.param(
        "class A { var x: int; }\n" + main("var a = new A();\n  print(a.y);"),
        "g.mini:4:10: class 'A' has no field 'y'",
        id="missing-field",
    ),
    pytest.param(
        main("var x = 1;\n  print(x.y);"),
        "g.mini:3:10: cannot access field 'y' on int",
        id="field-on-int",
    ),
    pytest.param(
        "class A { }\n" + main("var a = new A();\n  a.m(1);"),
        "g.mini:4:4: class 'A' has no method 'm'/1",
        id="missing-method",
    ),
    pytest.param(
        main("var b = true;\n  b.m();"),
        "g.mini:3:4: cannot call method 'm' on bool",
        id="method-on-bool",
    ),
    pytest.param(
        "class A { def m(x: int) { } }\n" + main("var a = new A();\n  a.m(true);"),
        "g.mini:4:7: argument 1 of m(): expected int, found bool",
        id="method-argument",
    ),
    pytest.param(
        "class A { }\n" + main("var a = new A(1);"),
        "g.mini:3:11: class 'A' has no init/1 constructor",
        id="no-constructor",
    ),
    pytest.param(
        "class A { def init(x: int) { } }\n" + main("var a = new A(false);"),
        "g.mini:3:17: argument 1 of init(): expected int, found bool",
        id="constructor-argument",
    ),
    # Functions and returns.
    pytest.param(
        "def f(): int {\n  print(1);\n}\n" + main(""),
        "g.mini:1:1: value-returning function may fall off the end without a return",
        id="missing-return",
    ),
    pytest.param(
        "def f(): int {\n  return;\n}\n" + main(""),
        "g.mini:2:3: missing return value (expected int)",
        id="return-without-value",
    ),
    pytest.param(
        "def f() {\n  return 1;\n}\n" + main(""),
        "g.mini:2:3: void function returns a value",
        id="void-returns-value",
    ),
    pytest.param(
        "def f(): bool {\n  return 1;\n}\n" + main(""),
        "g.mini:2:3: cannot return int from a function returning bool",
        id="return-type",
    ),
    pytest.param(
        "class A {\n  def init(): int { return 1; }\n}\n" + main(""),
        "g.mini:2:3: constructor A.init must return void",
        id="constructor-returns-value",
    ),
    pytest.param(
        "def f(a: int, a: int) { }\n" + main(""),
        "g.mini:1:15: duplicate parameter 'a'",
        id="duplicate-parameter",
    ),
    pytest.param(
        "def f(a: Missing) { }\n" + main(""),
        "g.mini:1:7: unknown class 'Missing'",
        id="unknown-parameter-type",
    ),
    pytest.param(
        "class A { var f: Missing[]; }\n" + main(""),
        "g.mini:1:11: unknown class 'Missing'",
        id="unknown-field-type",
    ),
    pytest.param(
        "def f() { }\ndef f() { }\n" + main(""),
        "g.mini:2:1: duplicate function 'f'",
        id="duplicate-function",
    ),
    pytest.param(
        "def len() { }\n" + main(""),
        "g.mini:1:1: function name 'len' shadows a builtin",
        id="shadows-builtin",
    ),
    pytest.param(
        "class A { }\ndef A() { }\n" + main(""),
        "g.mini:2:1: function name 'A' collides with a class",
        id="collides-with-class",
    ),
    pytest.param(
        "def f() { }\n",
        "program has no top-level main() function",
        id="no-main",
    ),
    pytest.param(
        "def main(x: int) { }\n",
        "main() must take no parameters",
        id="main-parameters",
    ),
]


def diagnose(source: str) -> MiniError:
    with pytest.raises(MiniError) as info:
        compile_source(source, FILE)
    return info.value


@pytest.mark.parametrize("source,expected", LEX)
def test_lexer_diagnostics(source, expected):
    error = diagnose(source)
    assert type(error) is LexError and str(error) == expected


@pytest.mark.parametrize("source,expected", PARSE)
def test_parser_diagnostics(source, expected):
    error = diagnose(source)
    assert type(error) is ParseError and str(error) == expected


@pytest.mark.parametrize("source,expected", HIERARCHY + TYPECHECK)
def test_semantic_diagnostics(source, expected):
    error = diagnose(source)
    assert type(error) is TypeError_ and str(error) == expected


@pytest.mark.parametrize("source,expected", LEX + PARSE + HIERARCHY + TYPECHECK)
def test_message_and_location_agree_with_the_text(source, expected):
    """``message`` and ``location`` are the two halves of ``str(error)``."""
    error = diagnose(source)
    prefix = "" if error.location is None else f"{error.location}: "
    assert str(error) == prefix + error.message
    if error.location is not None:
        assert error.location.filename == FILE
