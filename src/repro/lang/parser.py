"""Parser for the Mini language: recursive descent over declarations and
statements, precedence climbing over expressions.

Grammar (EBNF):

    program     := (classdecl | funcdecl)* EOF
    classdecl   := 'class' IDENT ('extends' IDENT)? '{' member* '}'
    member      := fielddecl | methoddecl
    fielddecl   := 'var' IDENT ':' type ';'
    methoddecl  := 'def' IDENT '(' params? ')' (':' type)? block
    funcdecl    := 'def' IDENT '(' params? ')' (':' type)? block
    params      := param (',' param)*
    param       := IDENT ':' type
    type        := ('int' | 'bool' | IDENT) ('[' ']')*
    block       := '{' stmt* '}'
    stmt        := vardecl | ifstmt | whilestmt | forstmt | returnstmt
                 | block | simple ';'
    vardecl     := 'var' IDENT (':' type)? '=' expr ';'
    ifstmt      := 'if' '(' expr ')' stmt ('else' stmt)?
    whilestmt   := 'while' '(' expr ')' stmt
    forstmt     := 'for' '(' (vardecl-no-semi|simple)? ';' expr? ';' simple? ')' stmt
    returnstmt  := 'return' expr? ';'
    simple      := assignment | expr          -- expression or lvalue '=' expr
    expr        := or
    or          := and ('||' and)*
    and         := equality ('&&' equality)*
    equality    := relational (('=='|'!=') relational)*
    relational  := additive (('<'|'<='|'>'|'>=') additive)*
    additive    := multiplicative (('+'|'-') multiplicative)*
    multiplicative := unary (('*'|'/'|'%') unary)*
    unary       := ('-'|'!') unary | postfix
    postfix     := primary (('.' IDENT ('(' args? ')')?) | '[' expr ']')*
    primary     := INT | 'true' | 'false' | 'null' | 'this'
                 | IDENT ('(' args? ')')? | 'new' newtail | '(' expr ')'
    newtail     := IDENT '(' args? ')' | ('int'|'bool'|IDENT) '[' expr ']'

The EBNF is the grammar of record, not a map of the methods.  The six
binary levels ``or`` … ``multiplicative`` are one loop:
:meth:`Parser.parse_expr` climbs
:data:`repro.lang.ast_nodes.BINARY_PRECEDENCE` (every binary operator is
left-associative).  ``unary``, ``postfix`` and ``primary`` are one method,
so a parenthesised expression costs two Python frames per nesting level;
nesting beyond what the host stack holds is a :class:`ParseError`, not a
``RecursionError``.

``for`` loops are desugared into ``while`` loops during parsing so the
rest of the pipeline only sees the core statement forms.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import FIXED_TOKENS, Token, TokenKind

# On CPython 3.11 every ``TokenKind.X`` goes through the enum metaclass's
# attribute hook (~100 ns), and the parser names several kinds per token:
# each kind it uses is bound to a module global once, here.
_ASSIGN = TokenKind.ASSIGN
_COLON = TokenKind.COLON
_COMMA = TokenKind.COMMA
_DOT = TokenKind.DOT
_EOF = TokenKind.EOF
_IDENT = TokenKind.IDENT
_INT = TokenKind.INT
_KW_BOOL = TokenKind.KW_BOOL
_KW_CLASS = TokenKind.KW_CLASS
_KW_DEF = TokenKind.KW_DEF
_KW_ELSE = TokenKind.KW_ELSE
_KW_EXTENDS = TokenKind.KW_EXTENDS
_KW_FALSE = TokenKind.KW_FALSE
_KW_FOR = TokenKind.KW_FOR
_KW_IF = TokenKind.KW_IF
_KW_INT = TokenKind.KW_INT
_KW_NEW = TokenKind.KW_NEW
_KW_NULL = TokenKind.KW_NULL
_KW_RETURN = TokenKind.KW_RETURN
_KW_THIS = TokenKind.KW_THIS
_KW_TRUE = TokenKind.KW_TRUE
_KW_VAR = TokenKind.KW_VAR
_KW_VOID = TokenKind.KW_VOID
_KW_WHILE = TokenKind.KW_WHILE
_LBRACE = TokenKind.LBRACE
_LBRACKET = TokenKind.LBRACKET
_LPAREN = TokenKind.LPAREN
_MINUS = TokenKind.MINUS
_NOT = TokenKind.NOT
_RBRACE = TokenKind.RBRACE
_RBRACKET = TokenKind.RBRACKET
_RPAREN = TokenKind.RPAREN
_SEMI = TokenKind.SEMI

#: Binary operator token → (binding power, operator text).
_BINARY: dict[TokenKind, tuple[int, str]] = {
    FIXED_TOKENS[op]: (power, op) for op, power in ast.BINARY_PRECEDENCE.items()
}


class Parser:
    """Parser over a pre-lexed token list, which must end with ``EOF``.

    The helpers consume only a token of the kind the caller names, and no
    caller names ``EOF``, so ``_pos`` never moves past the final token and
    ``self._tokens[self._pos]`` is always in range.
    """

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _at(self, kind: TokenKind) -> bool:
        return self._tokens[self._pos].kind is kind

    def _expect(self, kind: TokenKind) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not kind:
            raise ParseError(f"expected {kind.value!r}, found {token}", token)
        self._pos += 1
        return token

    def _match(self, kind: TokenKind) -> Token | None:
        token = self._tokens[self._pos]
        if token.kind is not kind:
            return None
        self._pos += 1
        return token

    def _match_empty_brackets(self) -> bool:
        """Consume ``'[' ']'``, an array-type suffix, if next."""
        tokens, pos = self._tokens, self._pos
        if (
            tokens[pos].kind is _LBRACKET  # so tokens[pos + 1] exists
            and tokens[pos + 1].kind is _RBRACKET
        ):
            self._pos += 2
            return True
        return False

    # -- top level ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        classes: list[ast.ClassDecl] = []
        functions: list[ast.FunctionDecl] = []
        try:
            while not self._at(_EOF):
                if self._at(_KW_CLASS):
                    classes.append(self._parse_class())
                elif self._at(_KW_DEF):
                    functions.append(self._parse_function())
                else:
                    unexpected = self._peek()
                    raise ParseError(
                        f"expected 'class' or 'def' at top level, found {unexpected}",
                        unexpected,
                    )
        except RecursionError:
            raise ParseError("expression nested too deeply", self._peek()) from None
        return ast.Program(classes=classes, functions=functions)

    def _parse_class(self) -> ast.ClassDecl:
        token = self._expect(_KW_CLASS)
        name = self._expect(_IDENT).value
        superclass = None
        if self._match(_KW_EXTENDS):
            superclass = self._expect(_IDENT).value
        self._expect(_LBRACE)
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self._match(_RBRACE):
            if self._at(_KW_VAR):
                fields.append(self._parse_field())
            elif self._at(_KW_DEF):
                methods.append(self._parse_method())
            else:
                unexpected = self._peek()
                raise ParseError(
                    f"expected 'var' or 'def' in class body, found {unexpected}", unexpected
                )
        return ast.ClassDecl(
            name=name,
            superclass=superclass,
            fields=fields,
            methods=methods,
            token=token,
        )

    def _parse_field(self) -> ast.FieldDecl:
        token = self._expect(_KW_VAR)
        name = self._expect(_IDENT).value
        self._expect(_COLON)
        type_ = self._parse_type()
        self._expect(_SEMI)
        return ast.FieldDecl(name=name, type=type_, token=token)

    def _parse_method(self) -> ast.MethodDecl:
        token = self._expect(_KW_DEF)
        name = self._expect(_IDENT).value
        params = self._parse_params()
        return_type: ast.TypeExpr = ast.VOID
        if self._match(_COLON):
            return_type = self._parse_type(allow_void=True)
        body = self._parse_block_body()
        return ast.MethodDecl(
            name=name,
            params=params,
            return_type=return_type,
            body=body,
            token=token,
        )

    def _parse_function(self) -> ast.FunctionDecl:
        method = self._parse_method()
        return ast.FunctionDecl(
            name=method.name,
            params=method.params,
            return_type=method.return_type,
            body=method.body,
            token=method.token,
        )

    def _parse_params(self) -> list[ast.Param]:
        self._expect(_LPAREN)
        params: list[ast.Param] = []
        if not self._at(_RPAREN):
            while True:
                token = self._expect(_IDENT)
                self._expect(_COLON)
                type_ = self._parse_type()
                params.append(ast.Param(name=token.value, type=type_, token=token))
                if not self._match(_COMMA):
                    break
        self._expect(_RPAREN)
        return params

    def _parse_type(self, allow_void: bool = False) -> ast.TypeExpr:
        token = self._peek()
        base: ast.TypeExpr
        if token.kind is _KW_INT:
            base = ast.INT
        elif token.kind is _KW_BOOL:
            base = ast.BOOL
        elif token.kind is _KW_VOID:
            if not allow_void:
                raise ParseError("'void' is only valid as a return type", token)
            base = ast.VOID
        elif token.kind is _IDENT:
            base = ast.ClassType(token.value)
        else:
            raise ParseError(f"expected a type, found {token}", token)
        self._pos += 1
        while self._match_empty_brackets():
            if base is ast.VOID:
                raise ParseError("array of void is not a type", token)
            base = ast.ArrayType(base)
        return base

    # -- statements ---------------------------------------------------------

    def _parse_block_body(self) -> list[ast.Stmt]:
        self._expect(_LBRACE)
        body: list[ast.Stmt] = []
        while not self._match(_RBRACE):
            body.append(self._parse_stmt())
        return body

    def _parse_stmt(self) -> ast.Stmt:
        if self._at(_KW_VAR):
            return self._parse_vardecl()
        if self._at(_KW_IF):
            return self._parse_if()
        if self._at(_KW_WHILE):
            return self._parse_while()
        if self._at(_KW_FOR):
            return self._parse_for()
        if self._at(_KW_RETURN):
            return self._parse_return()
        if self._at(_LBRACE):
            return ast.Block(token=self._peek(), body=self._parse_block_body())
        stmt = self._parse_simple()
        self._expect(_SEMI)
        return stmt

    def _parse_vardecl(self) -> ast.VarDecl:
        token = self._expect(_KW_VAR)
        name = self._expect(_IDENT).value
        declared_type = None
        if self._match(_COLON):
            declared_type = self._parse_type()
        self._expect(_ASSIGN)
        initializer = self.parse_expr()
        self._expect(_SEMI)
        return ast.VarDecl(
            token=token,
            name=name,
            declared_type=declared_type,
            initializer=initializer,
        )

    def _parse_if(self) -> ast.If:
        token = self._expect(_KW_IF)
        self._expect(_LPAREN)
        condition = self.parse_expr()
        self._expect(_RPAREN)
        then_body = self._stmt_as_body()
        else_body: list[ast.Stmt] = []
        if self._match(_KW_ELSE):
            else_body = self._stmt_as_body()
        return ast.If(
            token=token,
            condition=condition,
            then_body=then_body,
            else_body=else_body,
        )

    def _parse_while(self) -> ast.While:
        token = self._expect(_KW_WHILE)
        self._expect(_LPAREN)
        condition = self.parse_expr()
        self._expect(_RPAREN)
        body = self._stmt_as_body()
        return ast.While(token=token, condition=condition, body=body)

    def _parse_for(self) -> ast.Stmt:
        """Parse a C-style ``for`` and desugar to a block + while loop."""
        token = self._expect(_KW_FOR)
        self._expect(_LPAREN)

        init: ast.Stmt | None = None
        if not self._at(_SEMI):
            if self._at(_KW_VAR):
                init = self._parse_vardecl()  # consumes the ';'
            else:
                init = self._parse_simple()
                self._expect(_SEMI)
        else:
            self._expect(_SEMI)

        if self._at(_SEMI):
            condition: ast.Expr = ast.BoolLiteral(token=self._peek(), value=True)
        else:
            condition = self.parse_expr()
        self._expect(_SEMI)

        update: ast.Stmt | None = None
        if not self._at(_RPAREN):
            update = self._parse_simple()
        self._expect(_RPAREN)

        body = self._stmt_as_body()
        if update is not None:
            body = body + [update]
        loop = ast.While(token=token, condition=condition, body=body)
        if init is not None:
            return ast.Block(token=token, body=[init, loop])
        return loop

    def _parse_return(self) -> ast.Return:
        token = self._expect(_KW_RETURN)
        value = None
        if not self._at(_SEMI):
            value = self.parse_expr()
        self._expect(_SEMI)
        return ast.Return(token=token, value=value)

    def _stmt_as_body(self) -> list[ast.Stmt]:
        """Parse one statement; flatten a braced block into its statements."""
        stmt = self._parse_stmt()
        if isinstance(stmt, ast.Block):
            return stmt.body
        return [stmt]

    def _parse_simple(self) -> ast.Stmt:
        """Parse an assignment or a bare expression statement (no ';')."""
        token = self._peek()
        expr = self.parse_expr()
        if self._match(_ASSIGN):
            if not isinstance(expr, (ast.NameExpr, ast.FieldAccess, ast.IndexExpr)):
                raise ParseError("invalid assignment target", token)
            value = self.parse_expr()
            return ast.Assign(token=token, target=expr, value=value)
        return ast.ExprStmt(token=token, expr=expr)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_power: int = 1) -> ast.Expr:
        """Parse an operand, then fold in, left to right, every binary
        operator that binds at least as tightly as ``min_power``."""
        left = self._parse_operand()
        while True:
            token = self._tokens[self._pos]
            binding = _BINARY.get(token.kind)
            if binding is None or binding[0] < min_power:
                return left
            self._pos += 1
            power, op = binding
            right = self.parse_expr(power + 1)
            left = ast.BinaryOp(token=token, op=op, left=left, right=right)

    def _parse_operand(self) -> ast.Expr:
        """``unary``: a prefix operator and its operand, or a primary
        followed by its postfix chain."""
        token = self._tokens[self._pos]
        kind = token.kind
        if kind is _IDENT:
            self._pos += 1
            if self._at(_LPAREN):
                args = self._parse_args()
                expr: ast.Expr = ast.CallExpr(token=token, name=token.value, args=args)
            else:
                expr = ast.NameExpr(token=token, name=token.value)
        elif kind is _INT:
            self._pos += 1
            expr = ast.IntLiteral(token=token, value=token.value)
        elif kind is _LPAREN:
            self._pos += 1
            expr = self.parse_expr()
            self._expect(_RPAREN)
        elif kind is _MINUS or kind is _NOT:
            self._pos += 1
            operand = self._parse_operand()
            return ast.UnaryOp(token=token, op=kind.value, operand=operand)
        elif kind is _KW_THIS:
            self._pos += 1
            expr = ast.ThisExpr(token=token)
        elif kind is _KW_TRUE or kind is _KW_FALSE:
            self._pos += 1
            expr = ast.BoolLiteral(token=token, value=kind is _KW_TRUE)
        elif kind is _KW_NULL:
            self._pos += 1
            expr = ast.NullLiteral(token=token)
        elif kind is _KW_NEW:
            expr = self._parse_new()
        else:
            raise ParseError(f"expected an expression, found {token}", token)

        while True:
            token = self._tokens[self._pos]
            if token.kind is _DOT:
                self._pos += 1
                name = self._expect(_IDENT).value
                if self._at(_LPAREN):
                    args = self._parse_args()
                    expr = ast.MethodCall(
                        token=token,
                        receiver=expr,
                        method_name=name,
                        args=args,
                    )
                else:
                    expr = ast.FieldAccess(
                        token=token, receiver=expr, field_name=name
                    )
            elif token.kind is _LBRACKET:
                self._pos += 1
                index = self.parse_expr()
                self._expect(_RBRACKET)
                expr = ast.IndexExpr(token=token, array=expr, index=index)
            else:
                return expr

    def _parse_args(self) -> list[ast.Expr]:
        self._expect(_LPAREN)
        args: list[ast.Expr] = []
        if not self._at(_RPAREN):
            while True:
                args.append(self.parse_expr())
                if not self._match(_COMMA):
                    break
        self._expect(_RPAREN)
        return args

    def _parse_new(self) -> ast.Expr:
        token = self._expect(_KW_NEW)
        kind = self._peek().kind
        if kind is _KW_INT or kind is _KW_BOOL:
            base: ast.TypeExpr = ast.INT if kind is _KW_INT else ast.BOOL
            self._pos += 1
            return self._parse_new_array(token, base)
        name = self._expect(_IDENT).value
        if self._at(_LBRACKET):
            return self._parse_new_array(token, ast.ClassType(name))
        args = self._parse_args()
        return ast.NewObject(token=token, class_name=name, args=args)

    def _parse_new_array(
        self, token: Token, base: ast.TypeExpr
    ) -> ast.NewArray:
        self._expect(_LBRACKET)
        length = self.parse_expr()
        self._expect(_RBRACKET)
        element: ast.TypeExpr = base
        while self._match_empty_brackets():
            element = ast.ArrayType(element)
        return ast.NewArray(token=token, element_type=element, length=length)


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Parse Mini source text into an AST :class:`~repro.lang.ast_nodes.Program`."""
    return Parser(tokenize(source, filename)).parse_program()
