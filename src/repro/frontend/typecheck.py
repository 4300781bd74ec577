"""Type checker for the Mini language.

Walks the AST, resolving names and annotating every expression with its
``inferred_type``.  The code generator relies on those annotations (field
offsets and selectors need static receiver types), so type checking is a
mandatory pass, not an optional lint.

Rules of note:

* Field access always goes through an explicit receiver (``this.x``);
  bare names are locals/parameters only.
* ``new C(args)`` requires class ``C`` to declare or inherit a method
  ``init`` with matching arity returning ``void``; with no ``init`` the
  argument list must be empty.
* Value-returning functions must return on all control-flow paths.
* Builtins: ``print(int|bool): void`` and ``len(T[]): int``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import ast_nodes as ast
from repro.lang.errors import TypeError_
from repro.frontend.hierarchy import build_class_table
from repro.frontend.symbols import (
    ClassTable,
    FunctionTable,
    MethodSig,
    Scope,
    assignable,
    check_type_exists,
)

#: Operand type and result type of every binary operator but ``==`` and
#: ``!=``, whose operands need only be comparable.
_OPERATOR_TYPES: dict[str, tuple[ast.TypeExpr, ast.TypeExpr]] = {
    **{op: (ast.INT, ast.INT) for op in ("+", "-", "*", "/", "%")},
    **{op: (ast.INT, ast.BOOL) for op in ("<", "<=", ">", ">=")},
    **{op: (ast.BOOL, ast.BOOL) for op in ("&&", "||")},
}
_EQUALITY_OPS = frozenset({"==", "!="})

BUILTIN_NAMES = frozenset({"print", "len"})


@dataclass
class CheckedProgram:
    """The result of type checking: the AST plus resolved symbol tables."""

    ast: ast.Program
    classes: ClassTable
    functions: FunctionTable


def typecheck(program: ast.Program) -> CheckedProgram:
    """Type check ``program``; returns symbol tables for code generation."""
    classes = build_class_table(program)
    functions = _collect_functions(program, classes)
    checker = _Checker(classes, functions)

    for function in program.functions:
        checker.check_callable(function, this_class=None)
    for class_decl in program.classes:
        for method in class_decl.methods:
            if method.name == "init" and method.return_type != ast.VOID:
                raise TypeError_(
                    f"constructor {class_decl.name}.init must return void", method
                )
            checker.check_callable(method, this_class=class_decl.name)
    if "main" not in functions:
        raise TypeError_("program has no top-level main() function")
    main_sig = functions.get("main")
    if main_sig.argc != 0:
        raise TypeError_("main() must take no parameters")
    return CheckedProgram(ast=program, classes=classes, functions=functions)


def _collect_functions(program: ast.Program, classes: ClassTable) -> FunctionTable:
    table = FunctionTable()
    for function in program.functions:
        if function.name in BUILTIN_NAMES:
            raise TypeError_(
                f"function name {function.name!r} shadows a builtin", function
            )
        if function.name in classes:
            raise TypeError_(
                f"function name {function.name!r} collides with a class", function
            )
        for param in function.params:
            check_type_exists(param.type, classes, param)
        check_type_exists(function.return_type, classes, function)
        table.add(
            MethodSig(
                name=function.name,
                param_types=tuple(p.type for p in function.params),
                return_type=function.return_type,
            ),
            function,
        )
    for class_decl in program.classes:
        for field_decl in class_decl.fields:
            check_type_exists(field_decl.type, classes, field_decl)
        for method in class_decl.methods:
            for param in method.params:
                check_type_exists(param.type, classes, param)
            check_type_exists(method.return_type, classes, method)
    return table


def definitely_returns(body: list[ast.Stmt]) -> bool:
    """Conservative all-paths-return analysis."""
    for stmt in body:
        if isinstance(stmt, ast.Return):
            return True
        if isinstance(stmt, ast.If):
            if (
                stmt.else_body
                and definitely_returns(stmt.then_body)
                and definitely_returns(stmt.else_body)
            ):
                return True
        if isinstance(stmt, ast.Block) and definitely_returns(stmt.body):
            return True
        if isinstance(stmt, ast.While) and isinstance(stmt.condition, ast.BoolLiteral):
            if stmt.condition.value:
                # ``while (true)`` without break never falls through.
                return True
    return False


class _Checker:
    """Stateful walker; one instance checks a whole program.

    Statements and expressions are dispatched on their exact class through
    ``_CHECK_STMT`` and ``_INFER``; the parser builds no other node
    classes.  Errors are given the node they are about, and its line and
    column are resolved only when one is raised.
    """

    def __init__(self, classes: ClassTable, functions: FunctionTable):
        self._classes = classes
        self._functions = functions
        self._return_type: ast.TypeExpr = ast.VOID
        self._this_type: ast.ClassType | None = None
        self._next_slot = 0

    # -- declarations ---------------------------------------------------------

    def check_callable(
        self, decl: ast.FunctionDecl | ast.MethodDecl, this_class: str | None
    ) -> None:
        return_type = decl.return_type
        self._return_type = return_type
        self._this_type = None if this_class is None else ast.ClassType(this_class)
        scope = Scope()
        self._next_slot = 1 if this_class is not None else 0
        seen: set[str] = set()
        for param in decl.params:
            if param.name in seen:
                raise TypeError_(f"duplicate parameter {param.name!r}", param)
            seen.add(param.name)
            scope.declare(param.name, self._next_slot, param.type, param)
            self._next_slot += 1
        self._check_body(decl.body, scope)
        if return_type != ast.VOID and not definitely_returns(decl.body):
            raise TypeError_(
                "value-returning function may fall off the end without a return", decl
            )

    # -- statements -------------------------------------------------------------

    def _check_body(self, body: list[ast.Stmt], scope: Scope) -> None:
        check = self._CHECK_STMT
        for stmt in body:
            check[stmt.__class__](self, stmt, scope)

    def _check_var_decl(self, stmt: ast.VarDecl, scope: Scope) -> None:
        value_type = self._check_expr(stmt.initializer, scope)
        declared = stmt.declared_type
        if declared is not None:
            check_type_exists(declared, self._classes, stmt)
            if not assignable(declared, value_type, self._classes):
                raise TypeError_(
                    f"cannot initialize {declared} variable "
                    f"{stmt.name!r} with {value_type}",
                    stmt,
                )
        else:
            if isinstance(value_type, ast.NullType):
                raise TypeError_(
                    f"cannot infer a type for {stmt.name!r} from null; "
                    f"annotate the declaration",
                    stmt,
                )
            declared = value_type
        scope.declare(stmt.name, self._next_slot, declared, stmt)
        stmt.declared_type = declared  # record the resolved type for codegen
        self._next_slot += 1

    def _check_assign(self, stmt: ast.Assign, scope: Scope) -> None:
        target_type = self._check_assign_target(stmt.target, scope)
        value_type = self._check_expr(stmt.value, scope)
        if not assignable(target_type, value_type, self._classes):
            raise TypeError_(f"cannot assign {value_type} to {target_type}", stmt)

    def _check_expr_stmt(self, stmt: ast.ExprStmt, scope: Scope) -> None:
        self._check_expr(stmt.expr, scope)

    def _check_if(self, stmt: ast.If, scope: Scope) -> None:
        self._require(stmt.condition, ast.BOOL, scope, "if condition")
        self._check_body(stmt.then_body, scope.child())
        self._check_body(stmt.else_body, scope.child())

    def _check_while(self, stmt: ast.While, scope: Scope) -> None:
        self._require(stmt.condition, ast.BOOL, scope, "while condition")
        self._check_body(stmt.body, scope.child())

    def _check_return(self, stmt: ast.Return, scope: Scope) -> None:
        expected = self._return_type
        if stmt.value is None:
            if expected != ast.VOID:
                raise TypeError_(f"missing return value (expected {expected})", stmt)
            return
        if expected == ast.VOID:
            raise TypeError_("void function returns a value", stmt)
        value_type = self._check_expr(stmt.value, scope)
        if not assignable(expected, value_type, self._classes):
            raise TypeError_(
                f"cannot return {value_type} from a function returning {expected}", stmt
            )

    def _check_block(self, stmt: ast.Block, scope: Scope) -> None:
        self._check_body(stmt.body, scope.child())

    def _check_assign_target(self, target: ast.Expr, scope: Scope) -> ast.TypeExpr:
        if isinstance(target, ast.NameExpr):
            binding = scope.lookup(target.name)
            if binding is None:
                raise TypeError_(
                    f"assignment to undeclared variable {target.name!r} "
                    f"(fields need an explicit receiver: this.{target.name})",
                    target,
                )
            target.inferred_type = binding[1]
            return binding[1]
        if isinstance(target, (ast.FieldAccess, ast.IndexExpr)):
            return self._check_expr(target, scope)
        raise TypeError_("invalid assignment target", target)

    _CHECK_STMT = {
        ast.VarDecl: _check_var_decl,
        ast.Assign: _check_assign,
        ast.ExprStmt: _check_expr_stmt,
        ast.If: _check_if,
        ast.While: _check_while,
        ast.Return: _check_return,
        ast.Block: _check_block,
    }

    # -- expressions --------------------------------------------------------------

    def _require(
        self, expr: ast.Expr, expected: ast.TypeExpr, scope: Scope, what: str, *args
    ) -> None:
        """Check ``expr`` and reject it unless its type is ``expected``;
        the error names it as ``what.format(*args)``."""
        actual = self._check_expr(expr, scope)
        if actual is not expected and actual != expected:
            raise TypeError_(f"{what.format(*args)} must be {expected}, found {actual}", expr)

    def _check_expr(self, expr: ast.Expr, scope: Scope) -> ast.TypeExpr:
        result = self._INFER[expr.__class__](self, expr, scope)
        expr.inferred_type = result
        return result

    def _infer_int(self, expr: ast.IntLiteral, scope: Scope) -> ast.TypeExpr:
        return ast.INT

    def _infer_bool(self, expr: ast.BoolLiteral, scope: Scope) -> ast.TypeExpr:
        return ast.BOOL

    def _infer_null(self, expr: ast.NullLiteral, scope: Scope) -> ast.TypeExpr:
        return ast.NULL

    def _infer_this(self, expr: ast.ThisExpr, scope: Scope) -> ast.TypeExpr:
        if self._this_type is None:
            raise TypeError_("'this' outside a method", expr)
        return self._this_type

    def _infer_name(self, expr: ast.NameExpr, scope: Scope) -> ast.TypeExpr:
        binding = scope.lookup(expr.name)
        if binding is None:
            raise TypeError_(
                f"undeclared variable {expr.name!r} (fields need an explicit "
                f"receiver: this.{expr.name})",
                expr,
            )
        return binding[1]

    def _infer_field(self, expr: ast.FieldAccess, scope: Scope) -> ast.TypeExpr:
        receiver_type = self._check_expr(expr.receiver, scope)
        if not isinstance(receiver_type, ast.ClassType):
            raise TypeError_(
                f"cannot access field {expr.field_name!r} on {receiver_type}", expr
            )
        symbol = self._classes.require(receiver_type.name, expr)
        field_type = symbol.all_fields.get(expr.field_name)
        if field_type is None:
            raise TypeError_(
                f"class {receiver_type.name!r} has no field {expr.field_name!r}", expr
            )
        return field_type

    def _infer_index(self, expr: ast.IndexExpr, scope: Scope) -> ast.TypeExpr:
        array_type = self._check_expr(expr.array, scope)
        if not isinstance(array_type, ast.ArrayType):
            raise TypeError_(f"cannot index into {array_type}", expr)
        self._require(expr.index, ast.INT, scope, "array index")
        return array_type.element

    def _infer_unary(self, expr: ast.UnaryOp, scope: Scope) -> ast.TypeExpr:
        if expr.op == "-":
            self._require(expr.operand, ast.INT, scope, "operand of unary '-'")
            return ast.INT
        self._require(expr.operand, ast.BOOL, scope, "operand of '!'")
        return ast.BOOL

    def _infer_binary(self, expr: ast.BinaryOp, scope: Scope) -> ast.TypeExpr:
        # Every operator is left-associative, so ``a + b + ... + z`` is a
        # left spine as long as the chain: walk it with a loop, and recurse
        # only into right operands, whose depth the source's nesting bounds.
        # Operands are checked in the order recursion would check them.
        spine = []
        while expr.__class__ is ast.BinaryOp:
            spine.append(expr)
            expr = expr.left
        left = self._check_expr(expr, scope)
        for node in reversed(spine):
            left = node.inferred_type = self._infer_operator(node, left, scope)
        return left

    def _infer_operator(
        self, expr: ast.BinaryOp, left: ast.TypeExpr, scope: Scope
    ) -> ast.TypeExpr:
        """The type of ``expr`` once its left operand, of type ``left``, is checked."""
        op = expr.op
        rule = _OPERATOR_TYPES.get(op)
        if rule is not None:
            operand, result = rule
            if left is not operand and left != operand:
                raise TypeError_(
                    f"left operand of {op!r} must be {operand}, found {left}", expr.left
                )
            self._require(expr.right, operand, scope, "right operand of {!r}", op)
            return result
        if op not in _EQUALITY_OPS:
            raise TypeError_(f"unknown operator {op!r}", expr)
        right = self._check_expr(expr.right, scope)
        classes = self._classes
        if not (assignable(left, right, classes) or assignable(right, left, classes)):
            raise TypeError_(f"cannot compare {left} with {right}", expr)
        return ast.BOOL

    def _infer_call(self, expr: ast.CallExpr, scope: Scope) -> ast.TypeExpr:
        if expr.name == "print":
            if len(expr.args) != 1:
                raise TypeError_("print() takes exactly one argument", expr)
            arg_type = self._check_expr(expr.args[0], scope)
            if arg_type not in (ast.INT, ast.BOOL):
                raise TypeError_(f"cannot print {arg_type}", expr)
            return ast.VOID
        if expr.name == "len":
            if len(expr.args) != 1:
                raise TypeError_("len() takes exactly one argument", expr)
            arg_type = self._check_expr(expr.args[0], scope)
            if not isinstance(arg_type, ast.ArrayType):
                raise TypeError_(f"len() needs an array, found {arg_type}", expr)
            return ast.INT
        sig = self._functions.get(expr.name)
        if sig is None:
            raise TypeError_(f"unknown function {expr.name!r}", expr)
        self._check_args(sig, expr.args, scope, expr)
        return sig.return_type

    def _infer_method_call(self, expr: ast.MethodCall, scope: Scope) -> ast.TypeExpr:
        receiver_type = self._check_expr(expr.receiver, scope)
        if not isinstance(receiver_type, ast.ClassType):
            raise TypeError_(
                f"cannot call method {expr.method_name!r} on {receiver_type}", expr
            )
        symbol = self._classes.require(receiver_type.name, expr)
        sig = symbol.all_methods.get((expr.method_name, len(expr.args)))
        if sig is None:
            raise TypeError_(
                f"class {receiver_type.name!r} has no method "
                f"{expr.method_name!r}/{len(expr.args)}",
                expr,
            )
        self._check_args(sig, expr.args, scope, expr)
        return sig.return_type

    def _infer_new(self, expr: ast.NewObject, scope: Scope) -> ast.TypeExpr:
        symbol = self._classes.require(expr.class_name, expr)
        init_sig = symbol.all_methods.get(("init", len(expr.args)))
        if init_sig is not None:
            self._check_args(init_sig, expr.args, scope, expr)
        elif expr.args:
            raise TypeError_(
                f"class {expr.class_name!r} has no init/{len(expr.args)} constructor", expr
            )
        return ast.ClassType(expr.class_name)

    def _infer_new_array(self, expr: ast.NewArray, scope: Scope) -> ast.TypeExpr:
        check_type_exists(expr.element_type, self._classes, expr)
        self._require(expr.length, ast.INT, scope, "array length")
        return ast.ArrayType(expr.element_type)

    def _check_args(
        self, sig: MethodSig, args: list[ast.Expr], scope: Scope, call: ast.Expr
    ) -> None:
        if len(args) != sig.argc:
            raise TypeError_(
                f"{sig.name}() takes {sig.argc} argument(s), got {len(args)}", call
            )
        for i, (arg, expected) in enumerate(zip(args, sig.param_types)):
            actual = self._check_expr(arg, scope)
            if not assignable(expected, actual, self._classes):
                raise TypeError_(
                    f"argument {i + 1} of {sig.name}(): expected {expected}, "
                    f"found {actual}",
                    arg,
                )

    _INFER = {
        ast.IntLiteral: _infer_int,
        ast.BoolLiteral: _infer_bool,
        ast.NullLiteral: _infer_null,
        ast.ThisExpr: _infer_this,
        ast.NameExpr: _infer_name,
        ast.FieldAccess: _infer_field,
        ast.IndexExpr: _infer_index,
        ast.UnaryOp: _infer_unary,
        ast.BinaryOp: _infer_binary,
        ast.CallExpr: _infer_call,
        ast.MethodCall: _infer_method_call,
        ast.NewObject: _infer_new,
        ast.NewArray: _infer_new_array,
    }
