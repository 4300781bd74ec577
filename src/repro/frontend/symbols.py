"""Symbol tables and semantic type helpers for the Mini frontend.

Semantic types reuse the syntactic :mod:`repro.lang.ast_nodes` type
expressions (they are frozen dataclasses with structural equality), so no
separate type universe is needed; this module supplies assignability and
lookup on top of them.

Functions that may reject a program take ``where``: the token or AST node
(or a :class:`~repro.lang.errors.SourceLocation`) to report at.  Its line
and column are resolved only if an error is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import ast_nodes as ast
from repro.lang.errors import TypeError_


@dataclass(frozen=True)
class MethodSig:
    """Signature of a method or function."""

    name: str
    param_types: tuple[ast.TypeExpr, ...]
    return_type: ast.TypeExpr
    owner: str | None = None  # declaring class, None for top-level functions

    @property
    def argc(self) -> int:
        return len(self.param_types)

    def same_shape(self, other: "MethodSig") -> bool:
        """True when parameter and return types match (override check)."""
        return (
            self.param_types == other.param_types
            and self.return_type == other.return_type
        )


@dataclass
class ClassSymbol:
    """Semantic information about one class, including inherited members."""

    name: str
    superclass: str | None
    decl: ast.ClassDecl
    #: name -> type, own fields only.
    own_fields: dict[str, ast.TypeExpr] = field(default_factory=dict)
    #: name -> type, including inherited fields.
    all_fields: dict[str, ast.TypeExpr] = field(default_factory=dict)
    #: (name, argc) -> signature, own methods only.
    own_methods: dict[tuple[str, int], MethodSig] = field(default_factory=dict)
    #: (name, argc) -> signature, including inherited methods.
    all_methods: dict[tuple[str, int], MethodSig] = field(default_factory=dict)


class ClassTable:
    """All classes in a program, in superclass-first topological order."""

    def __init__(self) -> None:
        self._classes: dict[str, ClassSymbol] = {}
        self.order: list[str] = []

    def add(self, symbol: ClassSymbol) -> None:
        self._classes[symbol.name] = symbol
        self.order.append(symbol.name)

    def get(self, name: str) -> ClassSymbol | None:
        return self._classes.get(name)

    def require(self, name: str, where=None) -> ClassSymbol:
        symbol = self._classes.get(name)
        if symbol is None:
            raise TypeError_(f"unknown class {name!r}", where)
        return symbol

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self):
        return (self._classes[name] for name in self.order)

    def is_subclass(self, name: str, ancestor: str) -> bool:
        """True when ``name`` is ``ancestor`` or a (transitive) subclass."""
        current: str | None = name
        while current is not None:
            if current == ancestor:
                return True
            current = self._classes[current].superclass
        return False


class FunctionTable:
    """Top-level (static) function signatures by name."""

    def __init__(self) -> None:
        self._functions: dict[str, MethodSig] = {}

    def add(self, sig: MethodSig, where=None) -> None:
        if sig.name in self._functions:
            raise TypeError_(f"duplicate function {sig.name!r}", where)
        self._functions[sig.name] = sig

    def get(self, name: str) -> MethodSig | None:
        return self._functions.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._functions


class Scope:
    """A lexical scope mapping local variable names to (slot, type)."""

    def __init__(self, parent: "Scope | None" = None):
        self._parent = parent
        self._bindings: dict[str, tuple[int, ast.TypeExpr]] = {}

    def declare(self, name: str, slot: int, type_: ast.TypeExpr, where) -> None:
        if name in self._bindings:
            raise TypeError_(f"variable {name!r} already declared in this scope", where)
        self._bindings[name] = (slot, type_)

    def lookup(self, name: str) -> tuple[int, ast.TypeExpr] | None:
        scope: Scope | None = self
        while scope is not None:
            binding = scope._bindings.get(name)
            if binding is not None:
                return binding
            scope = scope._parent
        return None

    def child(self) -> "Scope":
        return Scope(self)


def is_reference(type_: ast.TypeExpr) -> bool:
    """Class, array, and null types are references (nullable)."""
    return isinstance(type_, (ast.ClassType, ast.ArrayType, ast.NullType))


def assignable(target: ast.TypeExpr, value: ast.TypeExpr, classes: ClassTable) -> bool:
    """Is a value of type ``value`` assignable to a slot of type ``target``?"""
    if target is value or target == value:
        return True
    if isinstance(value, ast.NullType):
        return is_reference(target)
    if isinstance(target, ast.ClassType) and isinstance(value, ast.ClassType):
        return classes.is_subclass(value.name, target.name)
    return False


def check_type_exists(type_: ast.TypeExpr, classes: ClassTable, where) -> None:
    """Reject type expressions naming unknown classes."""
    if isinstance(type_, ast.ClassType):
        classes.require(type_.name, where)
    elif isinstance(type_, ast.ArrayType):
        check_type_exists(type_.element, classes, where)
