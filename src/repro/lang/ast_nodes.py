"""Abstract syntax tree for the Mini language.

The AST is deliberately plain: frozen-ish dataclasses with a ``location``
for error reporting.  Type information is attached by the type checker
(see :mod:`repro.frontend.typecheck`) via the mutable ``inferred_type``
slot on expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.errors import SourceLocation

# ---------------------------------------------------------------------------
# Types (as written in source; resolution happens in the frontend)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeExpr:
    """Base class for syntactic type expressions."""


@dataclass(frozen=True)
class IntType(TypeExpr):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class BoolType(TypeExpr):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class VoidType(TypeExpr):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class ClassType(TypeExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayType(TypeExpr):
    element: TypeExpr

    def __str__(self) -> str:
        return f"{self.element}[]"


@dataclass(frozen=True)
class NullType(TypeExpr):
    """The type of the ``null`` literal; assignable to any class/array type."""

    def __str__(self) -> str:
        return "null"


INT = IntType()
BOOL = BoolType()
VOID = VoidType()
NULL = NullType()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions.  ``inferred_type`` is set by typecheck."""

    location: SourceLocation
    inferred_type: TypeExpr | None = field(default=None, init=False, compare=False)


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class BoolLiteral(Expr):
    value: bool = False


@dataclass
class NullLiteral(Expr):
    pass


@dataclass
class ThisExpr(Expr):
    pass


@dataclass
class NameExpr(Expr):
    """A bare identifier: a local variable, parameter, or implicit field."""

    name: str = ""


@dataclass
class FieldAccess(Expr):
    receiver: Expr = None  # type: ignore[assignment]
    field_name: str = ""


@dataclass
class IndexExpr(Expr):
    array: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class UnaryOp(Expr):
    op: str = ""  # "-" or "!"
    operand: Expr = None  # type: ignore[assignment]


#: Binding power of every binary operator; all are left-associative.  The
#: parser climbs this table and the printer parenthesises by it.
BINARY_PRECEDENCE: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}  # fmt: skip


@dataclass
class BinaryOp(Expr):
    op: str = ""  # a key of BINARY_PRECEDENCE
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class CallExpr(Expr):
    """A call to a top-level function or a builtin (``print``, ``len``)."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class MethodCall(Expr):
    """A virtual call ``receiver.method(args)``."""

    receiver: Expr = None  # type: ignore[assignment]
    method_name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class NewObject(Expr):
    class_name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class NewArray(Expr):
    element_type: TypeExpr = None  # type: ignore[assignment]
    length: Expr = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    location: SourceLocation


@dataclass
class VarDecl(Stmt):
    name: str = ""
    declared_type: TypeExpr | None = None
    initializer: Expr = None  # type: ignore[assignment]


@dataclass
class Assign(Stmt):
    target: Expr = None  # type: ignore[assignment]  # NameExpr | FieldAccess | IndexExpr
    value: Expr = None  # type: ignore[assignment]


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    condition: Expr = None  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Block(Stmt):
    body: list[Stmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    name: str
    type: TypeExpr
    location: SourceLocation


@dataclass
class MethodDecl:
    name: str
    params: list[Param]
    return_type: TypeExpr
    body: list[Stmt]
    location: SourceLocation


@dataclass
class FieldDecl:
    name: str
    type: TypeExpr
    location: SourceLocation


@dataclass
class ClassDecl:
    name: str
    superclass: str | None
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    location: SourceLocation


@dataclass
class FunctionDecl:
    """A top-level (static) function."""

    name: str
    params: list[Param]
    return_type: TypeExpr
    body: list[Stmt]
    location: SourceLocation


@dataclass
class Program:
    classes: list[ClassDecl]
    functions: list[FunctionDecl]
