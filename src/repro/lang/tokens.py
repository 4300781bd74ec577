"""Token kinds and the token record produced by the lexer.

A token carries its offset into the shared :class:`~repro.lang.errors.Source`
it was lexed from, not a line and column: ``token.location`` works those
out when it is read, which on a program that compiles is never.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.lang.errors import Source, SourceLocation


class TokenKind(enum.Enum):
    """Every terminal in the Mini grammar."""

    # Literals and identifiers
    INT = "int-literal"
    IDENT = "identifier"

    # Keywords
    KW_CLASS = "class"
    KW_EXTENDS = "extends"
    KW_DEF = "def"
    KW_VAR = "var"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_RETURN = "return"
    KW_NEW = "new"
    KW_THIS = "this"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_NULL = "null"
    KW_INT = "int"
    KW_BOOL = "bool"
    KW_VOID = "void"

    # Punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    DOT = "."

    # Operators
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"

    EOF = "<eof>"

    # Members are singletons compared by identity, so an identity hash
    # agrees with ``==``; it spares the parser's operator-table lookup a
    # call to ``Enum.__hash__``, which is Python code.
    __hash__ = object.__hash__


#: Source text of every keyword, operator and punctuation mark → its kind.
FIXED_TOKENS: dict[str, TokenKind] = {
    kind.value: kind
    for kind in TokenKind
    if kind not in (TokenKind.INT, TokenKind.IDENT, TokenKind.EOF)
}


class Token(NamedTuple):
    """A single lexed token.

    ``value`` holds the identifier text for :data:`TokenKind.IDENT` and the
    integer value (as ``int``) for :data:`TokenKind.INT`; it is ``None`` for
    all other kinds.  ``offset`` is where the token's text starts in
    ``source.text``.
    """

    kind: TokenKind
    value: object
    offset: int
    source: Source

    @property
    def location(self) -> SourceLocation:
        """Line, column and filename of the token's first character."""
        return self.source.location(self.offset)

    def __str__(self) -> str:
        if self.value is not None:
            return f"{self.kind.value}({self.value})"
        return self.kind.value
