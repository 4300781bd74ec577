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
from repro.lang.errors import ParseError, SourceLocation
from repro.lang.lexer import tokenize
from repro.lang.tokens import FIXED_TOKENS, Token, TokenKind

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
            raise ParseError(
                f"expected {kind.value!r}, found {token}", token.location
            )
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
            tokens[pos].kind is TokenKind.LBRACKET  # so tokens[pos + 1] exists
            and tokens[pos + 1].kind is TokenKind.RBRACKET
        ):
            self._pos += 2
            return True
        return False

    def _loc(self) -> SourceLocation:
        return self._tokens[self._pos].location

    # -- top level ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        classes: list[ast.ClassDecl] = []
        functions: list[ast.FunctionDecl] = []
        try:
            while not self._at(TokenKind.EOF):
                if self._at(TokenKind.KW_CLASS):
                    classes.append(self._parse_class())
                elif self._at(TokenKind.KW_DEF):
                    functions.append(self._parse_function())
                else:
                    raise ParseError(
                        f"expected 'class' or 'def' at top level, found {self._peek()}",
                        self._loc(),
                    )
        except RecursionError:
            raise ParseError("expression nested too deeply", self._loc()) from None
        return ast.Program(classes=classes, functions=functions)

    def _parse_class(self) -> ast.ClassDecl:
        location = self._loc()
        self._expect(TokenKind.KW_CLASS)
        name = self._expect(TokenKind.IDENT).value
        superclass = None
        if self._match(TokenKind.KW_EXTENDS):
            superclass = self._expect(TokenKind.IDENT).value
        self._expect(TokenKind.LBRACE)
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self._match(TokenKind.RBRACE):
            if self._at(TokenKind.KW_VAR):
                fields.append(self._parse_field())
            elif self._at(TokenKind.KW_DEF):
                methods.append(self._parse_method())
            else:
                raise ParseError(
                    f"expected 'var' or 'def' in class body, found {self._peek()}",
                    self._loc(),
                )
        return ast.ClassDecl(
            name=name,
            superclass=superclass,
            fields=fields,
            methods=methods,
            location=location,
        )

    def _parse_field(self) -> ast.FieldDecl:
        location = self._loc()
        self._expect(TokenKind.KW_VAR)
        name = self._expect(TokenKind.IDENT).value
        self._expect(TokenKind.COLON)
        type_ = self._parse_type()
        self._expect(TokenKind.SEMI)
        return ast.FieldDecl(name=name, type=type_, location=location)

    def _parse_method(self) -> ast.MethodDecl:
        location = self._loc()
        self._expect(TokenKind.KW_DEF)
        name = self._expect(TokenKind.IDENT).value
        params = self._parse_params()
        return_type: ast.TypeExpr = ast.VOID
        if self._match(TokenKind.COLON):
            return_type = self._parse_type(allow_void=True)
        body = self._parse_block_body()
        return ast.MethodDecl(
            name=name,
            params=params,
            return_type=return_type,
            body=body,
            location=location,
        )

    def _parse_function(self) -> ast.FunctionDecl:
        method = self._parse_method()
        return ast.FunctionDecl(
            name=method.name,
            params=method.params,
            return_type=method.return_type,
            body=method.body,
            location=method.location,
        )

    def _parse_params(self) -> list[ast.Param]:
        self._expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                location = self._loc()
                name = self._expect(TokenKind.IDENT).value
                self._expect(TokenKind.COLON)
                type_ = self._parse_type()
                params.append(ast.Param(name=name, type=type_, location=location))
                if not self._match(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN)
        return params

    def _parse_type(self, allow_void: bool = False) -> ast.TypeExpr:
        token = self._peek()
        base: ast.TypeExpr
        if token.kind is TokenKind.KW_INT:
            base = ast.INT
        elif token.kind is TokenKind.KW_BOOL:
            base = ast.BOOL
        elif token.kind is TokenKind.KW_VOID:
            if not allow_void:
                raise ParseError("'void' is only valid as a return type", token.location)
            base = ast.VOID
        elif token.kind is TokenKind.IDENT:
            base = ast.ClassType(token.value)
        else:
            raise ParseError(f"expected a type, found {token}", token.location)
        self._pos += 1
        while self._match_empty_brackets():
            if base is ast.VOID:
                raise ParseError("array of void is not a type", token.location)
            base = ast.ArrayType(base)
        return base

    # -- statements ---------------------------------------------------------

    def _parse_block_body(self) -> list[ast.Stmt]:
        self._expect(TokenKind.LBRACE)
        body: list[ast.Stmt] = []
        while not self._match(TokenKind.RBRACE):
            body.append(self._parse_stmt())
        return body

    def _parse_stmt(self) -> ast.Stmt:
        if self._at(TokenKind.KW_VAR):
            return self._parse_vardecl()
        if self._at(TokenKind.KW_IF):
            return self._parse_if()
        if self._at(TokenKind.KW_WHILE):
            return self._parse_while()
        if self._at(TokenKind.KW_FOR):
            return self._parse_for()
        if self._at(TokenKind.KW_RETURN):
            return self._parse_return()
        if self._at(TokenKind.LBRACE):
            location = self._loc()
            return ast.Block(location=location, body=self._parse_block_body())
        stmt = self._parse_simple()
        self._expect(TokenKind.SEMI)
        return stmt

    def _parse_vardecl(self) -> ast.VarDecl:
        location = self._loc()
        self._expect(TokenKind.KW_VAR)
        name = self._expect(TokenKind.IDENT).value
        declared_type = None
        if self._match(TokenKind.COLON):
            declared_type = self._parse_type()
        self._expect(TokenKind.ASSIGN)
        initializer = self.parse_expr()
        self._expect(TokenKind.SEMI)
        return ast.VarDecl(
            location=location,
            name=name,
            declared_type=declared_type,
            initializer=initializer,
        )

    def _parse_if(self) -> ast.If:
        location = self._loc()
        self._expect(TokenKind.KW_IF)
        self._expect(TokenKind.LPAREN)
        condition = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        then_body = self._stmt_as_body()
        else_body: list[ast.Stmt] = []
        if self._match(TokenKind.KW_ELSE):
            else_body = self._stmt_as_body()
        return ast.If(
            location=location,
            condition=condition,
            then_body=then_body,
            else_body=else_body,
        )

    def _parse_while(self) -> ast.While:
        location = self._loc()
        self._expect(TokenKind.KW_WHILE)
        self._expect(TokenKind.LPAREN)
        condition = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self._stmt_as_body()
        return ast.While(location=location, condition=condition, body=body)

    def _parse_for(self) -> ast.Stmt:
        """Parse a C-style ``for`` and desugar to a block + while loop."""
        location = self._loc()
        self._expect(TokenKind.KW_FOR)
        self._expect(TokenKind.LPAREN)

        init: ast.Stmt | None = None
        if not self._at(TokenKind.SEMI):
            if self._at(TokenKind.KW_VAR):
                init = self._parse_vardecl()  # consumes the ';'
            else:
                init = self._parse_simple()
                self._expect(TokenKind.SEMI)
        else:
            self._expect(TokenKind.SEMI)

        if self._at(TokenKind.SEMI):
            condition: ast.Expr = ast.BoolLiteral(location=self._loc(), value=True)
        else:
            condition = self.parse_expr()
        self._expect(TokenKind.SEMI)

        update: ast.Stmt | None = None
        if not self._at(TokenKind.RPAREN):
            update = self._parse_simple()
        self._expect(TokenKind.RPAREN)

        body = self._stmt_as_body()
        if update is not None:
            body = body + [update]
        loop = ast.While(location=location, condition=condition, body=body)
        if init is not None:
            return ast.Block(location=location, body=[init, loop])
        return loop

    def _parse_return(self) -> ast.Return:
        location = self._loc()
        self._expect(TokenKind.KW_RETURN)
        value = None
        if not self._at(TokenKind.SEMI):
            value = self.parse_expr()
        self._expect(TokenKind.SEMI)
        return ast.Return(location=location, value=value)

    def _stmt_as_body(self) -> list[ast.Stmt]:
        """Parse one statement; flatten a braced block into its statements."""
        stmt = self._parse_stmt()
        if isinstance(stmt, ast.Block):
            return stmt.body
        return [stmt]

    def _parse_simple(self) -> ast.Stmt:
        """Parse an assignment or a bare expression statement (no ';')."""
        location = self._loc()
        expr = self.parse_expr()
        if self._match(TokenKind.ASSIGN):
            if not isinstance(expr, (ast.NameExpr, ast.FieldAccess, ast.IndexExpr)):
                raise ParseError("invalid assignment target", location)
            value = self.parse_expr()
            return ast.Assign(location=location, target=expr, value=value)
        return ast.ExprStmt(location=location, expr=expr)

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
            left = ast.BinaryOp(location=token.location, op=op, left=left, right=right)

    def _parse_operand(self) -> ast.Expr:
        """``unary``: a prefix operator and its operand, or a primary
        followed by its postfix chain."""
        token = self._tokens[self._pos]
        kind = token.kind
        location = token.location
        if kind is TokenKind.IDENT:
            self._pos += 1
            if self._at(TokenKind.LPAREN):
                args = self._parse_args()
                expr: ast.Expr = ast.CallExpr(location=location, name=token.value, args=args)
            else:
                expr = ast.NameExpr(location=location, name=token.value)
        elif kind is TokenKind.INT:
            self._pos += 1
            expr = ast.IntLiteral(location=location, value=token.value)
        elif kind is TokenKind.LPAREN:
            self._pos += 1
            expr = self.parse_expr()
            self._expect(TokenKind.RPAREN)
        elif kind is TokenKind.MINUS or kind is TokenKind.NOT:
            self._pos += 1
            operand = self._parse_operand()
            return ast.UnaryOp(location=location, op=kind.value, operand=operand)
        elif kind is TokenKind.KW_THIS:
            self._pos += 1
            expr = ast.ThisExpr(location=location)
        elif kind is TokenKind.KW_TRUE or kind is TokenKind.KW_FALSE:
            self._pos += 1
            expr = ast.BoolLiteral(location=location, value=kind is TokenKind.KW_TRUE)
        elif kind is TokenKind.KW_NULL:
            self._pos += 1
            expr = ast.NullLiteral(location=location)
        elif kind is TokenKind.KW_NEW:
            expr = self._parse_new()
        else:
            raise ParseError(f"expected an expression, found {token}", location)

        while True:
            token = self._tokens[self._pos]
            if token.kind is TokenKind.DOT:
                self._pos += 1
                name = self._expect(TokenKind.IDENT).value
                if self._at(TokenKind.LPAREN):
                    args = self._parse_args()
                    expr = ast.MethodCall(
                        location=token.location,
                        receiver=expr,
                        method_name=name,
                        args=args,
                    )
                else:
                    expr = ast.FieldAccess(
                        location=token.location, receiver=expr, field_name=name
                    )
            elif token.kind is TokenKind.LBRACKET:
                self._pos += 1
                index = self.parse_expr()
                self._expect(TokenKind.RBRACKET)
                expr = ast.IndexExpr(location=token.location, array=expr, index=index)
            else:
                return expr

    def _parse_args(self) -> list[ast.Expr]:
        self._expect(TokenKind.LPAREN)
        args: list[ast.Expr] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                args.append(self.parse_expr())
                if not self._match(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN)
        return args

    def _parse_new(self) -> ast.Expr:
        location = self._loc()
        self._expect(TokenKind.KW_NEW)
        token = self._peek()
        if token.kind in (TokenKind.KW_INT, TokenKind.KW_BOOL):
            base: ast.TypeExpr = ast.INT if token.kind is TokenKind.KW_INT else ast.BOOL
            self._pos += 1
            return self._parse_new_array(location, base)
        name = self._expect(TokenKind.IDENT).value
        if self._at(TokenKind.LBRACKET):
            return self._parse_new_array(location, ast.ClassType(name))
        args = self._parse_args()
        return ast.NewObject(location=location, class_name=name, args=args)

    def _parse_new_array(
        self, location: SourceLocation, base: ast.TypeExpr
    ) -> ast.NewArray:
        self._expect(TokenKind.LBRACKET)
        length = self.parse_expr()
        self._expect(TokenKind.RBRACKET)
        element: ast.TypeExpr = base
        while self._match_empty_brackets():
            element = ast.ArrayType(element)
        return ast.NewArray(location=location, element_type=element, length=length)


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Parse Mini source text into an AST :class:`~repro.lang.ast_nodes.Program`."""
    return Parser(tokenize(source, filename)).parse_program()
