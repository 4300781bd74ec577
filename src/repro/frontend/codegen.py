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
from repro.lang.errors import ParseError
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


def _deepest(tree) -> ast.Located | None:
    """The most deeply nested node, found without recursing (the error
    resolves the location of this one node only)."""
    depth, deepest = -1, None
    work = [(tree, 0)]
    while work:
        node, level = work.pop()
        if isinstance(node, (list, tuple)):
            work.extend((child, level) for child in node)
        elif is_dataclass(node):
            if level > depth and isinstance(node, ast.Located):
                depth, deepest = level, node
            work.extend((getattr(node, f.name), level + 1) for f in fields(node))
    return deepest


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
    #
    # ``_stmt`` and ``_expr`` dispatch on the node's exact class through
    # ``_STMT`` and ``_EXPR``; the parser builds no other node classes.

    def _stmt(self, stmt: ast.Stmt) -> None:
        self._STMT[stmt.__class__](self, stmt)

    def _var_decl(self, stmt: ast.VarDecl) -> None:
        self._expr(stmt.initializer)
        self._emit(Op.STORE, self._declare(stmt.name))

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
        else:  # IndexExpr: the parser admits no other target
            self._expr(target.array)
            self._expr(target.index)
            self._expr(stmt.value)
            self._emit(Op.ASTORE)

    def _expr_stmt(self, stmt: ast.ExprStmt) -> None:
        self._expr(stmt.expr)
        result = stmt.expr.inferred_type
        if result is not ast.VOID and result != ast.VOID:
            self._emit(Op.POP)

    def _if(self, stmt: ast.If) -> None:
        self._expr(stmt.condition)
        jump_to_else = self._emit(Op.JUMP_IF_FALSE)
        self._scoped(stmt.then_body)
        if stmt.else_body:
            jump_to_end = self._emit(Op.JUMP)
            self._patch(jump_to_else, self._here())
            self._scoped(stmt.else_body)
            self._patch(jump_to_end, self._here())
        else:
            self._patch(jump_to_else, self._here())

    def _while(self, stmt: ast.While) -> None:
        loop_start = self._here()
        self._expr(stmt.condition)
        jump_out = self._emit(Op.JUMP_IF_FALSE)
        self._scoped(stmt.body)
        self._emit(Op.JUMP, loop_start)  # the backedge
        self._patch(jump_out, self._here())

    def _return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self._emit(Op.RETURN)
        else:
            self._expr(stmt.value)
            self._emit(Op.RETURN_VAL)

    def _block(self, stmt: ast.Block) -> None:
        self._scoped(stmt.body)

    def _scoped(self, body: list[ast.Stmt]) -> None:
        self._push_scope()
        for inner in body:
            self._stmt(inner)
        self._pop_scope()

    _STMT = {
        ast.VarDecl: _var_decl,
        ast.Assign: _assign,
        ast.ExprStmt: _expr_stmt,
        ast.If: _if,
        ast.While: _while,
        ast.Return: _return,
        ast.Block: _block,
    }

    # -- expressions -----------------------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> None:
        self._EXPR[expr.__class__](self, expr)

    def _int_literal(self, expr: ast.IntLiteral) -> None:
        self._emit(Op.PUSH, expr.value)

    def _bool_literal(self, expr: ast.BoolLiteral) -> None:
        self._emit(Op.PUSH, 1 if expr.value else 0)

    def _null_literal(self, expr: ast.NullLiteral) -> None:
        self._emit(Op.PUSH_NULL)

    def _this(self, expr: ast.ThisExpr) -> None:
        self._emit(Op.LOAD, 0)

    def _name(self, expr: ast.NameExpr) -> None:
        self._emit(Op.LOAD, self._slots[expr.name])

    def _field_access(self, expr: ast.FieldAccess) -> None:
        self._expr(expr.receiver)
        receiver_type = expr.receiver.inferred_type
        assert isinstance(receiver_type, ast.ClassType)
        offset = self._gen.field_offset(receiver_type.name, expr.field_name)
        self._emit(Op.GETFIELD, offset)

    def _index(self, expr: ast.IndexExpr) -> None:
        self._expr(expr.array)
        self._expr(expr.index)
        self._emit(Op.ALOAD)

    def _unary(self, expr: ast.UnaryOp) -> None:
        self._expr(expr.operand)
        self._emit(Op.NEG if expr.op == "-" else Op.NOT)

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
        # A left-deep chain ``a + b + ... + z`` is walked with a loop, so
        # its length costs no host stack (see ``_Checker._infer_binary``);
        # the code is what recursing into each left operand would emit.
        spine = []
        while expr.__class__ is ast.BinaryOp:
            spine.append(expr)
            expr = expr.left
        self._expr(expr)
        for node in reversed(spine):
            op = node.op
            if op == "&&" or op == "||":
                self._emit(Op.DUP)
                short = self._emit(Op.JUMP_IF_FALSE if op == "&&" else Op.JUMP_IF_TRUE)
                self._emit(Op.POP)
                self._expr(node.right)
                self._patch(short, self._here())
            else:
                self._expr(node.right)
                self._emit(self._BINARY_OPS[op])

    def _method_call(self, expr: ast.MethodCall) -> None:
        self._expr(expr.receiver)
        for arg in expr.args:
            self._expr(arg)
        sid = self._gen.selector(expr.method_name, len(expr.args))
        self._emit(Op.CALL_VIRTUAL, sid, len(expr.args))

    def _new_array(self, expr: ast.NewArray) -> None:
        self._expr(expr.length)
        self._emit(Op.NEW_ARRAY)

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

    _EXPR = {
        ast.IntLiteral: _int_literal,
        ast.BoolLiteral: _bool_literal,
        ast.NullLiteral: _null_literal,
        ast.ThisExpr: _this,
        ast.NameExpr: _name,
        ast.FieldAccess: _field_access,
        ast.IndexExpr: _index,
        ast.UnaryOp: _unary,
        ast.BinaryOp: _binary,
        ast.CallExpr: _call,
        ast.MethodCall: _method_call,
        ast.NewObject: _new_object,
        ast.NewArray: _new_array,
    }
