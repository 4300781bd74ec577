"""Parser unit tests."""

import pytest

from repro.lang import ast_nodes as ast
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse
from repro.lang.tokens import TokenKind


def parse_main_body(body: str) -> list:
    program = parse(f"def main() {{ {body} }}")
    return program.functions[0].body


def parse_expr(text: str) -> ast.Expr:
    body = parse_main_body(f"var x = {text};")
    return body[0].initializer


# -- declarations --------------------------------------------------------------


def test_empty_program():
    program = parse("")
    assert program.classes == [] and program.functions == []


def test_function_declaration():
    program = parse("def f(a: int, b: bool): int { return 1; }")
    function = program.functions[0]
    assert function.name == "f"
    assert [p.name for p in function.params] == ["a", "b"]
    assert function.params[0].type == ast.INT
    assert function.params[1].type == ast.BOOL
    assert function.return_type == ast.INT


def test_void_function_no_annotation():
    program = parse("def f() { }")
    assert program.functions[0].return_type == ast.VOID


def test_explicit_void_return_type():
    program = parse("def f(): void { }")
    assert program.functions[0].return_type == ast.VOID


def test_class_declaration():
    program = parse("class A { var x: int; def get(): int { return 1; } }")
    cls = program.classes[0]
    assert cls.name == "A"
    assert cls.superclass is None
    assert cls.fields[0].name == "x"
    assert cls.methods[0].name == "get"


def test_class_extends():
    program = parse("class A { } class B extends A { }")
    assert program.classes[1].superclass == "A"


def test_array_type():
    program = parse("def f(a: int[][]) { }")
    param_type = program.functions[0].params[0].type
    assert param_type == ast.ArrayType(ast.ArrayType(ast.INT))


def test_class_type_param():
    program = parse("class A { } def f(a: A) { }")
    assert program.functions[0].params[0].type == ast.ClassType("A")


def test_void_array_rejected():
    with pytest.raises(ParseError):
        parse("def f(): void[] { }")


# -- statements -----------------------------------------------------------------


def test_var_decl_with_type():
    body = parse_main_body("var x: int = 5;")
    decl = body[0]
    assert isinstance(decl, ast.VarDecl)
    assert decl.declared_type == ast.INT


def test_var_decl_inferred():
    decl = parse_main_body("var x = 5;")[0]
    assert decl.declared_type is None


def test_assignment_to_name():
    stmt = parse_main_body("var x = 1; x = 2;")[1]
    assert isinstance(stmt, ast.Assign)
    assert isinstance(stmt.target, ast.NameExpr)


def test_assignment_to_literal_rejected():
    with pytest.raises(ParseError):
        parse_main_body("3 = 4;")


def test_if_else():
    stmt = parse_main_body("if (true) { return; } else { return; }")[0]
    assert isinstance(stmt, ast.If)
    assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1


def test_if_without_braces():
    stmt = parse_main_body("if (true) return;")[0]
    assert isinstance(stmt, ast.If)
    assert isinstance(stmt.then_body[0], ast.Return)


def test_while():
    stmt = parse_main_body("while (false) { }")[0]
    assert isinstance(stmt, ast.While)


def test_for_desugars_to_while():
    body = parse_main_body("for (var i = 0; i < 3; i = i + 1) { print(i); }")
    block = body[0]
    assert isinstance(block, ast.Block)
    assert isinstance(block.body[0], ast.VarDecl)
    loop = block.body[1]
    assert isinstance(loop, ast.While)
    # The update statement is appended to the loop body.
    assert isinstance(loop.body[-1], ast.Assign)


def test_for_without_init_or_update():
    body = parse_main_body("for (; true; ) { return; }")
    assert isinstance(body[0], ast.While)


def test_for_with_empty_condition_is_true():
    loop = parse_main_body("for (;;) { return; }")[0]
    assert isinstance(loop, ast.While)
    assert isinstance(loop.condition, ast.BoolLiteral) and loop.condition.value


def test_return_value():
    stmt = parse("def f(): int { return 42; }").functions[0].body[0]
    assert isinstance(stmt, ast.Return)
    assert isinstance(stmt.value, ast.IntLiteral)


def test_nested_block():
    stmt = parse_main_body("{ var x = 1; }")[0]
    assert isinstance(stmt, ast.Block)


# -- expressions --------------------------------------------------------------------


def test_precedence_mul_over_add():
    expr = parse_expr("1 + 2 * 3")
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_precedence_comparison_over_and():
    expr = parse_expr("1 < 2 && 3 < 4")
    assert expr.op == "&&"
    assert expr.left.op == "<"


def test_precedence_and_over_or():
    expr = parse_expr("true || false && true")
    assert expr.op == "||"
    assert expr.right.op == "&&"


def test_left_associativity():
    expr = parse_expr("1 - 2 - 3")
    assert expr.op == "-"
    assert expr.left.op == "-"
    assert expr.left.left.value == 1


def test_parentheses_override():
    expr = parse_expr("(1 + 2) * 3")
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_unary_minus_and_not():
    assert parse_expr("-x").op == "-"
    assert parse_expr("!x").op == "!"


def test_unary_binds_tighter_than_binary():
    expr = parse_expr("-a + b")
    assert expr.op == "+"
    assert isinstance(expr.left, ast.UnaryOp)


def test_call_expression():
    expr = parse_expr("f(1, 2, 3)")
    assert isinstance(expr, ast.CallExpr)
    assert expr.name == "f" and len(expr.args) == 3


def test_method_call_chain():
    expr = parse_expr("a.b().c(1)")
    assert isinstance(expr, ast.MethodCall)
    assert expr.method_name == "c"
    assert isinstance(expr.receiver, ast.MethodCall)


def test_field_access():
    expr = parse_expr("this.x")
    assert isinstance(expr, ast.FieldAccess)
    assert isinstance(expr.receiver, ast.ThisExpr)


def test_index_expression():
    expr = parse_expr("a[i + 1]")
    assert isinstance(expr, ast.IndexExpr)


def test_new_object_with_args():
    expr = parse_expr("new Point(1, 2)")
    assert isinstance(expr, ast.NewObject)
    assert expr.class_name == "Point" and len(expr.args) == 2


def test_new_array():
    expr = parse_expr("new int[10]")
    assert isinstance(expr, ast.NewArray)
    assert expr.element_type == ast.INT


def test_new_class_array():
    expr = parse_expr("new Point[3]")
    assert isinstance(expr, ast.NewArray)
    assert expr.element_type == ast.ClassType("Point")


def test_literals():
    assert parse_expr("true").value is True
    assert parse_expr("false").value is False
    assert isinstance(parse_expr("null"), ast.NullLiteral)


def test_error_on_missing_semicolon():
    with pytest.raises(ParseError):
        parse("def main() { var x = 1 }")


def test_error_on_bad_top_level():
    with pytest.raises(ParseError):
        parse("var x = 1;")


def test_error_on_unclosed_paren():
    with pytest.raises(ParseError):
        parse("def main() { print((1 + 2); }")


def test_error_message_includes_location():
    with pytest.raises(ParseError) as exc_info:
        parse("def main() {\n  var = 1;\n}")
    assert "2:" in str(exc_info.value)


# -- precedence climbing: exact shape and operator location ----------------------


def shape(expr):
    """S-expression of an AST: operators carry the 1-based column of the
    token their ``location`` must point at."""
    column = expr.location.column
    if isinstance(expr, ast.BinaryOp):
        return (expr.op, column, shape(expr.left), shape(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return (expr.op, column, shape(expr.operand))
    if isinstance(expr, ast.FieldAccess):
        return (".", column, shape(expr.receiver), expr.field_name)
    if isinstance(expr, ast.MethodCall):
        return (".()", column, shape(expr.receiver), expr.method_name, [shape(a) for a in expr.args])
    if isinstance(expr, ast.IndexExpr):
        return ("[]", column, shape(expr.array), shape(expr.index))
    if isinstance(expr, ast.NameExpr):
        return expr.name
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    raise AssertionError(f"unexpected node {expr!r}")


PRECEDENCE_TABLE = [
    # Left-associative at every level.
    ("a - b - c", ("-", 7, ("-", 3, "a", "b"), "c")),
    ("a / b * c % d", ("%", 11, ("*", 7, ("/", 3, "a", "b"), "c"), "d")),
    ("a && b && c", ("&&", 8, ("&&", 3, "a", "b"), "c")),
    ("a || b || c", ("||", 8, ("||", 3, "a", "b"), "c")),
    ("a == b != c", ("!=", 8, ("==", 3, "a", "b"), "c")),
    ("a < b >= c", (">=", 7, ("<", 3, "a", "b"), "c")),
    # Each level binds tighter than the one before it.
    ("a < b == c", ("==", 7, ("<", 3, "a", "b"), "c")),
    ("a == b < c", ("==", 3, "a", ("<", 8, "b", "c"))),
    ("a + b * c % d", ("+", 3, "a", ("%", 11, ("*", 7, "b", "c"), "d"))),
    ("a * b + c", ("+", 7, ("*", 3, "a", "b"), "c")),
    ("a + b < c - d", ("<", 7, ("+", 3, "a", "b"), ("-", 11, "c", "d"))),
    ("a == b && c != d", ("&&", 8, ("==", 3, "a", "b"), ("!=", 13, "c", "d"))),
    ("!a && b || c", ("||", 9, ("&&", 4, ("!", 1, "a"), "b"), "c")),
    ("a || b && c", ("||", 3, "a", ("&&", 8, "b", "c"))),
    (
        "a || b && c == d < e + f * g",
        ("||", 3, "a", ("&&", 8, "b", ("==", 13, "c", ("<", 18, "d", ("+", 22, "e", ("*", 26, "f", "g")))))),
    ),
    (
        "a * b + c < d == e && f || g",
        ("||", 25, ("&&", 20, ("==", 15, ("<", 11, ("+", 7, ("*", 3, "a", "b"), "c"), "d"), "e"), "f"), "g"),
    ),
    # Unary binds tighter than any binary operator and chains.
    ("-a * b", ("*", 4, ("-", 1, "a"), "b")),
    ("a * -b", ("*", 3, "a", ("-", 5, "b"))),
    ("a - -b", ("-", 3, "a", ("-", 5, "b"))),
    ("- - ! a", ("-", 1, ("-", 3, ("!", 5, "a")))),
    ("!!a == b", ("==", 5, ("!", 1, ("!", 2, "a")), "b")),
    # Postfix binds tighter than unary, and chains after parentheses.
    ("-a.f", ("-", 1, (".", 3, "a", "f"))),
    ("-a[1]", ("-", 1, ("[]", 3, "a", 1))),
    ("(a + b).f", (".", 8, ("+", 4, "a", "b"), "f")),
    ("(a + b)[c * 2].m(d - 1).g", (
        ".", 24,
        (".()", 15, ("[]", 8, ("+", 4, "a", "b"), ("*", 11, "c", 2)), "m", [("-", 20, "d", 1)]),
        "g",
    )),
    ("((a)).f[0]", ("[]", 8, (".", 6, "a", "f"), 0)),
    # Parentheses override and leave no node behind.
    ("a - (b - c)", ("-", 3, "a", ("-", 8, "b", "c"))),
    ("(a + b) * c", ("*", 9, ("+", 4, "a", "b"), "c")),
    ("((a))", "a"),
]


@pytest.mark.parametrize("text,expected", PRECEDENCE_TABLE, ids=[row[0] for row in PRECEDENCE_TABLE])
def test_precedence_table_shape_and_operator_location(text, expected):
    parser = Parser(tokenize(text))
    assert shape(parser.parse_expr()) == expected
    assert parser._peek().kind is TokenKind.EOF


def test_binary_operator_location_spans_lines():
    expr = Parser(tokenize("a\n  +\n    b")).parse_expr()
    assert (expr.location.line, expr.location.column) == (2, 3)
    assert (expr.right.location.line, expr.right.location.column) == (3, 5)


def test_parse_expr_stops_at_the_first_token_it_cannot_use():
    parser = Parser(tokenize("a + b ) c"))
    assert shape(parser.parse_expr()) == ("+", 3, "a", "b")
    assert parser._peek().kind is TokenKind.RPAREN


@pytest.mark.parametrize(
    "text,message,column",
    [
        ("a +", "expected an expression, found <eof>", 4),
        ("a + * b", "expected an expression, found *", 5),
        ("(a + b", "expected ')', found <eof>", 7),
        ("a[1", "expected ']', found <eof>", 4),
        ("a.1", "expected 'identifier', found int-literal(1)", 3),
        ("f(a,)", "expected an expression, found )", 5),
    ],
)
def test_expression_errors_point_at_the_offending_token(text, message, column):
    with pytest.raises(ParseError) as info:
        Parser(tokenize(text)).parse_expr()
    assert (info.value.message, info.value.location.column) == (message, column)


# -- deep nesting is a diagnostic, not a host crash -------------------------------


def nested(depth: int) -> str:
    return "def main(): int { return " + "(" * depth + "1" + ")" * depth + "; }"


def test_400_nested_parentheses_parse():
    value = parse(nested(400)).functions[0].body[0].value
    assert isinstance(value, ast.IntLiteral) and value.value == 1


def test_nesting_beyond_the_host_stack_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse(nested(100_000), "deep.mini")
    assert info.value.message == "expression nested too deeply"
    location = info.value.location
    # Somewhere inside the run of opening parentheses on line 1.
    assert location.filename == "deep.mini" and location.line == 1
    assert 26 < location.column <= 26 + 100_000
    assert str(info.value).startswith("deep.mini:1:")


def test_deeply_nested_unary_and_else_if_chains_are_parse_errors_too():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("def main(): int { return " + "-" * 100_000 + "1; }")
    chain = " else ".join(["if (x == 1) { x = 2; }"] * 20_000)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("def main() { var x = 1; " + chain + " }")
