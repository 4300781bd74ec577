"""AST pretty-printer: renders a Mini AST back to source text.

``parse(print_program(parse(src)))`` produces an identical AST (modulo
source locations), which the property tests exercise.  Useful for
program generators and for dumping desugared forms (``for`` loops print
as the ``while`` form they desugar to).
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast

_INDENT = "  "

_UNARY_PRECEDENCE = 7


def print_program(program: ast.Program) -> str:
    """Render a whole program."""
    parts: list[str] = []
    for class_decl in program.classes:
        parts.append(_print_class(class_decl))
    for function in program.functions:
        parts.append(_print_callable("def", function.name, function.params,
                                     function.return_type, function.body, 0))
    return "\n\n".join(parts) + "\n"


def _print_class(decl: ast.ClassDecl) -> str:
    header = f"class {decl.name}"
    if decl.superclass is not None:
        header += f" extends {decl.superclass}"
    lines = [header + " {"]
    for field_decl in decl.fields:
        lines.append(f"{_INDENT}var {field_decl.name}: {field_decl.type};")
    for method in decl.methods:
        lines.append(
            _print_callable(
                "def", method.name, method.params, method.return_type, method.body, 1
            )
        )
    lines.append("}")
    return "\n".join(lines)


def _print_callable(keyword, name, params, return_type, body, depth) -> str:
    prefix = _INDENT * depth
    params_text = ", ".join(f"{p.name}: {p.type}" for p in params)
    annotation = "" if return_type == ast.VOID else f": {return_type}"
    lines = [f"{prefix}{keyword} {name}({params_text}){annotation} {{"]
    for stmt in body:
        lines.append(_print_stmt(stmt, depth + 1))
    lines.append(f"{prefix}}}")
    return "\n".join(lines)


def _print_block(body: list[ast.Stmt], depth: int) -> list[str]:
    return [_print_stmt(stmt, depth) for stmt in body]


def _print_stmt(stmt: ast.Stmt, depth: int) -> str:
    prefix = _INDENT * depth
    if isinstance(stmt, ast.VarDecl):
        annotation = (
            f": {stmt.declared_type}" if stmt.declared_type is not None else ""
        )
        return f"{prefix}var {stmt.name}{annotation} = {print_expr(stmt.initializer)};"
    if isinstance(stmt, ast.Assign):
        return f"{prefix}{print_expr(stmt.target)} = {print_expr(stmt.value)};"
    if isinstance(stmt, ast.ExprStmt):
        return f"{prefix}{print_expr(stmt.expr)};"
    if isinstance(stmt, ast.If):
        lines = [f"{prefix}if ({print_expr(stmt.condition)}) {{"]
        lines.extend(_print_block(stmt.then_body, depth + 1))
        if stmt.else_body:
            lines.append(f"{prefix}}} else {{")
            lines.extend(_print_block(stmt.else_body, depth + 1))
        lines.append(f"{prefix}}}")
        return "\n".join(lines)
    if isinstance(stmt, ast.While):
        lines = [f"{prefix}while ({print_expr(stmt.condition)}) {{"]
        lines.extend(_print_block(stmt.body, depth + 1))
        lines.append(f"{prefix}}}")
        return "\n".join(lines)
    if isinstance(stmt, ast.Return):
        if stmt.value is None:
            return f"{prefix}return;"
        return f"{prefix}return {print_expr(stmt.value)};"
    if isinstance(stmt, ast.Block):
        lines = [f"{prefix}{{"]
        lines.extend(_print_block(stmt.body, depth + 1))
        lines.append(f"{prefix}}}")
        return "\n".join(lines)
    raise TypeError(f"cannot print statement {type(stmt).__name__}")


def print_expr(expr: ast.Expr, parent_precedence: int = 0) -> str:
    """Render one expression, parenthesizing as needed."""
    text, precedence = _expr_parts(expr)
    if precedence < parent_precedence:
        return f"({text})"
    return text


def _expr_parts(expr: ast.Expr) -> tuple[str, int]:
    atom = 10
    if isinstance(expr, ast.IntLiteral):
        return str(expr.value), atom
    if isinstance(expr, ast.BoolLiteral):
        return ("true" if expr.value else "false"), atom
    if isinstance(expr, ast.NullLiteral):
        return "null", atom
    if isinstance(expr, ast.ThisExpr):
        return "this", atom
    if isinstance(expr, ast.NameExpr):
        return expr.name, atom
    if isinstance(expr, ast.FieldAccess):
        return f"{print_expr(expr.receiver, atom)}.{expr.field_name}", atom
    if isinstance(expr, ast.IndexExpr):
        return (
            f"{print_expr(expr.array, atom)}[{print_expr(expr.index)}]",
            atom,
        )
    if isinstance(expr, ast.UnaryOp):
        operand = print_expr(expr.operand, _UNARY_PRECEDENCE + 1)
        return f"{expr.op}{operand}", _UNARY_PRECEDENCE
    if isinstance(expr, ast.BinaryOp):
        precedence = ast.BINARY_PRECEDENCE[expr.op]
        left = print_expr(expr.left, precedence)
        # Left-associative grammar: the right operand needs one more level.
        right = print_expr(expr.right, precedence + 1)
        return f"{left} {expr.op} {right}", precedence
    if isinstance(expr, ast.CallExpr):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{expr.name}({args})", atom
    if isinstance(expr, ast.MethodCall):
        args = ", ".join(print_expr(a) for a in expr.args)
        receiver = print_expr(expr.receiver, atom)
        return f"{receiver}.{expr.method_name}({args})", atom
    if isinstance(expr, ast.NewObject):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"new {expr.class_name}({args})", atom
    if isinstance(expr, ast.NewArray):
        # Parser syntax puts extra dimensions after the length:
        # ``new int[3][]`` allocates an int[][] of length 3.
        base = expr.element_type
        suffix = ""
        while isinstance(base, ast.ArrayType):
            base = base.element
            suffix += "[]"
        return f"new {base}[{print_expr(expr.length)}]{suffix}", atom
    raise TypeError(f"cannot print expression {type(expr).__name__}")
