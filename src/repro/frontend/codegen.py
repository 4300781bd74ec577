"""Code generator: checked Mini AST → VM bytecode.

Invariants established here (and re-checked by the bytecode verifier):

* Classes are registered superclass-first; ``Program.build_vtables`` runs
  before bodies are generated, so field offsets and selector ids are
  available during emission.
* Call convention: receiver (for methods) then arguments are pushed
  left-to-right; the callee sees them in locals ``0..argc``.
* Every function ends with an explicit return epilogue, so control can
  never fall off the end even when the all-paths-return analysis was
  conservative; the epilogue is unreachable in well-typed code and is
  removed by the optimizer's dead-code pass at higher opt levels.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

from repro.bytecode.function import FunctionInfo
from repro.bytecode.instr import Instr
from repro.bytecode.opcodes import Op
from repro.bytecode.program import ClassInfo, Program
from repro.bytecode.verifier import verify_program
from repro.lang import ast_nodes as ast
from repro.lang.errors import ParseError, SourceLocation, TypeError_
from repro.lang.parser import parse
from repro.frontend.typecheck import CheckedProgram, typecheck


def compile_program(checked: CheckedProgram) -> Program:
    """Generate a verified :class:`Program` from a type-checked AST."""
    generator = _CodeGenerator(checked)
    program = generator.generate()
    verify_program(program)
    return program


def compile_source(source: str, filename: str = "<string>") -> Program:
    """Front-to-back convenience: parse, typecheck, and compile ``source``.

    The parser bounds nesting by the host stack it has left, but the
    passes after it spend more host frames per level, so nesting the
    parser admits can still exhaust the stack there.  That is reported
    as the parser reports it, at the most deeply nested node."""
    tree = parse(source, filename)
    try:
        return compile_program(typecheck(tree))
    except RecursionError:
        raise ParseError("expression nested too deeply", _deepest(tree)) from None


def _deepest(tree) -> SourceLocation:
    """The location of the most deeply nested node, found without
    recursing."""
    depth, location = -1, None
    work = [(tree, 0)]
    while work:
        node, level = work.pop()
        if isinstance(node, (list, tuple)):
            work.extend((child, level) for child in node)
        elif is_dataclass(node):
            if level > depth and getattr(node, "location", None) is not None:
                depth, location = level, node.location
            work.extend((getattr(node, f.name), level + 1) for f in fields(node))
    return location


class _CodeGenerator:
    def __init__(self, checked: CheckedProgram):
        self._checked = checked
        self._program = Program()
        self._class_decl_by_name = {c.name: c for c in checked.ast.classes}

    # -- program-level orchestration ------------------------------------------

    def generate(self) -> Program:
        # 1. Register classes in superclass-first order with own fields.
        for name in self._checked.classes.order:
            decl = self._class_decl_by_name[name]
            self._program.add_class(
                ClassInfo(
                    name=decl.name,
                    super_name=decl.superclass,
                    field_layout=[f.name for f in decl.fields],
                    field_default_by_name={
                        f.name: (
                            None
                            if isinstance(f.type, (ast.ClassType, ast.ArrayType))
                            else 0
                        )
                        for f in decl.fields
                    },
                )
            )

        # 2. Register all functions and methods (bodies come later).
        pending: list[tuple[FunctionInfo, list[ast.Param], list[ast.Stmt], str | None]] = []
        for function in self._checked.ast.functions:
            info = FunctionInfo(
                name=function.name,
                code=[],
                num_params=len(function.params),
                num_locals=0,
                kind="static",
                returns_value=function.return_type != ast.VOID,
                local_names=[p.name for p in function.params],
            )
            self._program.add_function(info)
            pending.append((info, function.params, function.body, None))
        for name in self._checked.classes.order:
            decl = self._class_decl_by_name[name]
            for method in decl.methods:
                info = FunctionInfo(
                    name=method.name,
                    code=[],
                    num_params=len(method.params) + 1,
                    num_locals=0,
                    kind="method",
                    owner=decl.name,
                    returns_value=method.return_type != ast.VOID,
                    local_names=["this"] + [p.name for p in method.params],
                )
                index = self._program.add_function(info)
                self._program.class_named(decl.name).declared_methods.append(index)

        # 3. Layouts + vtables, so bodies can resolve offsets and selectors.
        self._program.build_vtables()

        # 4. Generate bodies.
        for info, params, body, _ in pending:
            _FunctionEmitter(self, info, params, body, this_class=None).emit()
        for name in self._checked.classes.order:
            decl = self._class_decl_by_name[name]
            for method in decl.methods:
                info = self._program.function_named(f"{decl.name}.{method.name}")
                _FunctionEmitter(
                    self, info, method.params, method.body, this_class=decl.name
                ).emit()
        return self._program

    # -- lookups used by emitters -----------------------------------------------

    @property
    def program(self) -> Program:
        return self._program

    def field_offset(self, class_name: str, field_name: str) -> int:
        return self._program.class_named(class_name).field_offsets[field_name]

    def static_function_index(self, name: str) -> int:
        return self._program.function_index(name)

    def selector(self, name: str, argc: int) -> int:
        return self._program.selector_id(name, argc)

    def has_init(self, class_name: str, argc: int) -> bool:
        symbol = self._checked.classes.require(class_name)
        return ("init", argc) in symbol.all_methods


class _FunctionEmitter:
    """Emits bytecode for a single function or method body."""

    def __init__(
        self,
        generator: _CodeGenerator,
        info: FunctionInfo,
        params: list[ast.Param],
        body: list[ast.Stmt],
        this_class: str | None,
    ):
        self._gen = generator
        self._info = info
        self._body = body
        self._code: list[Instr] = []
        self._slots: dict[str, int] = {}
        self._scope_stack: list[list[str]] = [[]]
        self._next_slot = 0
        if this_class is not None:
            self._declare("this")
        for param in params:
            self._declare(param.name)

    # -- slot / scope management --------------------------------------------------

    def _declare(self, name: str) -> int:
        slot = self._next_slot
        self._slots[name] = slot
        self._scope_stack[-1].append(name)
        self._next_slot += 1
        return slot

    def _push_scope(self) -> None:
        self._scope_stack.append([])

    def _pop_scope(self) -> None:
        # Shadowed bindings are impossible (the typechecker rejects
        # redeclaration in nested scopes only if same scope; for nested
        # shadowing we keep unique slots and restore nothing because Mini's
        # typechecker forbids duplicate names per scope chain lookup order).
        for name in self._scope_stack.pop():
            del self._slots[name]

    # -- emission helpers ----------------------------------------------------------

    def _emit(self, op: Op, a: int | None = None, b: int | None = None) -> int:
        self._code.append(Instr(op, a, b))
        return len(self._code) - 1

    def _here(self) -> int:
        return len(self._code)

    def _patch(self, pc: int, target: int) -> None:
        self._code[pc].a = target

    # -- entry point ------------------------------------------------------------------

    def emit(self) -> None:
        for stmt in self._body:
            self._stmt(stmt)
        # Safety epilogue; unreachable in well-typed value-returning code.
        if self._info.returns_value:
            self._emit(Op.PUSH, 0)
            self._emit(Op.RETURN_VAL)
        else:
            self._emit(Op.RETURN)
        self._info.code = self._code
        self._info.num_locals = max(self._next_slot, self._info.num_params)

    # -- statements ----------------------------------------------------------------------

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._expr(stmt.initializer)
            slot = self._declare(stmt.name)
            self._emit(Op.STORE, slot)
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr)
            if stmt.expr.inferred_type != ast.VOID:
                self._emit(Op.POP)
        elif isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.While):
            self._while(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self._emit(Op.RETURN)
            else:
                self._expr(stmt.value)
                self._emit(Op.RETURN_VAL)
        elif isinstance(stmt, ast.Block):
            self._push_scope()
            for inner in stmt.body:
                self._stmt(inner)
            self._pop_scope()
        else:  # pragma: no cover
            raise TypeError_(f"cannot generate {type(stmt).__name__}", stmt.location)

    def _assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.NameExpr):
            self._expr(stmt.value)
            self._emit(Op.STORE, self._slots[target.name])
        elif isinstance(target, ast.FieldAccess):
            self._expr(target.receiver)
            self._expr(stmt.value)
            receiver_type = target.receiver.inferred_type
            assert isinstance(receiver_type, ast.ClassType)
            offset = self._gen.field_offset(receiver_type.name, target.field_name)
            self._emit(Op.PUTFIELD, offset)
        elif isinstance(target, ast.IndexExpr):
            self._expr(target.array)
            self._expr(target.index)
            self._expr(stmt.value)
            self._emit(Op.ASTORE)
        else:  # pragma: no cover
            raise TypeError_("invalid assignment target", stmt.location)

    def _if(self, stmt: ast.If) -> None:
        self._expr(stmt.condition)
        jump_to_else = self._emit(Op.JUMP_IF_FALSE)
        self._push_scope()
        for inner in stmt.then_body:
            self._stmt(inner)
        self._pop_scope()
        if stmt.else_body:
            jump_to_end = self._emit(Op.JUMP)
            self._patch(jump_to_else, self._here())
            self._push_scope()
            for inner in stmt.else_body:
                self._stmt(inner)
            self._pop_scope()
            self._patch(jump_to_end, self._here())
        else:
            self._patch(jump_to_else, self._here())

    def _while(self, stmt: ast.While) -> None:
        loop_start = self._here()
        self._expr(stmt.condition)
        jump_out = self._emit(Op.JUMP_IF_FALSE)
        self._push_scope()
        for inner in stmt.body:
            self._stmt(inner)
        self._pop_scope()
        self._emit(Op.JUMP, loop_start)  # the backedge
        self._patch(jump_out, self._here())

    # -- expressions -----------------------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.IntLiteral):
            self._emit(Op.PUSH, expr.value)
        elif isinstance(expr, ast.BoolLiteral):
            self._emit(Op.PUSH, 1 if expr.value else 0)
        elif isinstance(expr, ast.NullLiteral):
            self._emit(Op.PUSH_NULL)
        elif isinstance(expr, ast.ThisExpr):
            self._emit(Op.LOAD, 0)
        elif isinstance(expr, ast.NameExpr):
            self._emit(Op.LOAD, self._slots[expr.name])
        elif isinstance(expr, ast.FieldAccess):
            self._expr(expr.receiver)
            receiver_type = expr.receiver.inferred_type
            assert isinstance(receiver_type, ast.ClassType)
            offset = self._gen.field_offset(receiver_type.name, expr.field_name)
            self._emit(Op.GETFIELD, offset)
        elif isinstance(expr, ast.IndexExpr):
            self._expr(expr.array)
            self._expr(expr.index)
            self._emit(Op.ALOAD)
        elif isinstance(expr, ast.UnaryOp):
            self._expr(expr.operand)
            self._emit(Op.NEG if expr.op == "-" else Op.NOT)
        elif isinstance(expr, ast.BinaryOp):
            self._binary(expr)
        elif isinstance(expr, ast.CallExpr):
            self._call(expr)
        elif isinstance(expr, ast.MethodCall):
            self._expr(expr.receiver)
            for arg in expr.args:
                self._expr(arg)
            sid = self._gen.selector(expr.method_name, len(expr.args))
            self._emit(Op.CALL_VIRTUAL, sid, len(expr.args))
        elif isinstance(expr, ast.NewObject):
            self._new_object(expr)
        elif isinstance(expr, ast.NewArray):
            self._expr(expr.length)
            self._emit(Op.NEW_ARRAY)
        else:  # pragma: no cover
            raise TypeError_(f"cannot generate {type(expr).__name__}", expr.location)

    _BINARY_OPS = {
        "+": Op.ADD,
        "-": Op.SUB,
        "*": Op.MUL,
        "/": Op.DIV,
        "%": Op.MOD,
        "<": Op.LT,
        "<=": Op.LE,
        ">": Op.GT,
        ">=": Op.GE,
        "==": Op.EQ,
        "!=": Op.NE,
    }

    def _binary(self, expr: ast.BinaryOp) -> None:
        if expr.op == "&&":
            self._expr(expr.left)
            self._emit(Op.DUP)
            short = self._emit(Op.JUMP_IF_FALSE)
            self._emit(Op.POP)
            self._expr(expr.right)
            self._patch(short, self._here())
            return
        if expr.op == "||":
            self._expr(expr.left)
            self._emit(Op.DUP)
            short = self._emit(Op.JUMP_IF_TRUE)
            self._emit(Op.POP)
            self._expr(expr.right)
            self._patch(short, self._here())
            return
        self._expr(expr.left)
        self._expr(expr.right)
        self._emit(self._BINARY_OPS[expr.op])

    def _call(self, expr: ast.CallExpr) -> None:
        if expr.name == "print":
            self._expr(expr.args[0])
            self._emit(Op.PRINT)
            return
        if expr.name == "len":
            self._expr(expr.args[0])
            self._emit(Op.ARRAY_LEN)
            return
        for arg in expr.args:
            self._expr(arg)
        index = self._gen.static_function_index(expr.name)
        self._emit(Op.CALL_STATIC, index, len(expr.args))

    def _new_object(self, expr: ast.NewObject) -> None:
        class_index = self._gen.program.class_named(expr.class_name).index
        self._emit(Op.NEW, class_index)
        if self._gen.has_init(expr.class_name, len(expr.args)):
            self._emit(Op.DUP)
            for arg in expr.args:
                self._expr(arg)
            sid = self._gen.selector("init", len(expr.args))
            self._emit(Op.CALL_VIRTUAL, sid, len(expr.args))
