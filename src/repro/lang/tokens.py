"""Token kinds and the token record produced by the lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.lang.errors import SourceLocation


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
    all other kinds.
    """

    kind: TokenKind
    value: object
    location: SourceLocation

    def __str__(self) -> str:
        if self.value is not None:
            return f"{self.kind.value}({self.value})"
        return self.kind.value
