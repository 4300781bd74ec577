"""Class-hierarchy analysis: builds the :class:`ClassTable` from the AST.

Responsibilities:

* detect duplicate classes, inheritance cycles, unknown superclasses,
* topologically sort classes superclass-first (required for vtable and
  field-layout construction downstream),
* compute inherited member tables,
* check field shadowing (rejected) and override signature compatibility.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.lang.errors import TypeError_
from repro.frontend.symbols import ClassSymbol, ClassTable, MethodSig


def build_class_table(program: ast.Program) -> ClassTable:
    """Analyze ``program``'s classes, returning a populated table."""
    decls: dict[str, ast.ClassDecl] = {}
    for decl in program.classes:
        if decl.name in decls:
            raise TypeError_(f"duplicate class {decl.name!r}", decl)
        decls[decl.name] = decl

    order = _topo_sort(decls)
    table = ClassTable()
    for name in order:
        table.add(_analyze_class(decls[name], table))
    return table


def _topo_sort(decls: dict[str, ast.ClassDecl]) -> list[str]:
    """Order classes so superclasses precede subclasses; detect cycles."""
    color: dict[str, int] = {}  # 0 unvisited / 1 visiting / 2 done
    order: list[str] = []

    def visit(name: str) -> None:
        state = color.get(name, 0)
        if state == 2:
            return
        if state == 1:
            raise TypeError_(f"inheritance cycle involving class {name!r}")
        color[name] = 1
        decl = decls[name]
        if decl.superclass is not None:
            if decl.superclass not in decls:
                raise TypeError_(
                    f"class {name!r} extends unknown class {decl.superclass!r}",
                    decl,
                )
            visit(decl.superclass)
        color[name] = 2
        order.append(name)

    for name in decls:
        visit(name)
    return order


def _analyze_class(decl: ast.ClassDecl, table: ClassTable) -> ClassSymbol:
    symbol = ClassSymbol(name=decl.name, superclass=decl.superclass, decl=decl)

    super_symbol = None
    if decl.superclass is not None:
        super_symbol = table.require(decl.superclass, decl)
        symbol.all_fields.update(super_symbol.all_fields)
        symbol.all_methods.update(super_symbol.all_methods)

    for field_decl in decl.fields:
        if field_decl.name in symbol.own_fields:
            raise TypeError_(
                f"duplicate field {field_decl.name!r} in class {decl.name!r}",
                field_decl,
            )
        if field_decl.name in symbol.all_fields:
            raise TypeError_(
                f"field {field_decl.name!r} in class {decl.name!r} shadows an "
                f"inherited field",
                field_decl,
            )
        symbol.own_fields[field_decl.name] = field_decl.type
        symbol.all_fields[field_decl.name] = field_decl.type

    for method in decl.methods:
        key = (method.name, len(method.params))
        if key in symbol.own_methods:
            raise TypeError_(
                f"duplicate method {method.name!r}/{len(method.params)} in class "
                f"{decl.name!r}",
                method,
            )
        sig = MethodSig(
            name=method.name,
            param_types=tuple(p.type for p in method.params),
            return_type=method.return_type,
            owner=decl.name,
        )
        inherited = symbol.all_methods.get(key)
        if inherited is not None and not sig.same_shape(inherited):
            raise TypeError_(
                f"method {decl.name}.{method.name} overrides "
                f"{inherited.owner}.{inherited.name} with an incompatible signature",
                method,
            )
        symbol.own_methods[key] = sig
        symbol.all_methods[key] = sig

    return symbol
