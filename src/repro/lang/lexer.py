"""Lexer for the Mini language: one master regex driven by ``finditer``.

Each match is optional blanks followed by exactly one lexeme — an
identifier, keyword or operator, an integer, a newline, a comment, or a
single offending character — so ``finditer`` can skip nothing but
trailing blanks.  Lines and columns are derived from match offsets: only
newline and block-comment matches move the line bookkeeping.

Identifiers and integer literals are ASCII (``[A-Za-z_][A-Za-z0-9_]*``
and ``[0-9]+``); ``//`` line comments and non-nesting ``/* ... */``
block comments are skipped; the keywords and operators are the values
of :class:`repro.lang.tokens.TokenKind`.
"""

from __future__ import annotations

import re

from repro.lang.errors import LexError, SourceLocation
from repro.lang.tokens import FIXED_TOKENS, Token, TokenKind

_TOKEN_RE = re.compile(
    r"""[ \t\r]*(?:
      (?P<fixed_or_ident> [A-Za-z_][A-Za-z0-9_]*
                        | [=!<>]=? | && | \|\| | [-+*%(){}\[\],;:.] | /(?![/*]) )
    | (?P<newline>        \n )
    | (?P<int>            [0-9]+ (?![A-Za-z0-9_]) )
    | (?P<comment>        //[^\n]* | /\*(?s:.*?)\*/ )
    | (?P<unterminated>   /\* )
    | (?P<digit_prefix>   [0-9] )
    | (?P<unexpected>     [^ \t\r] )
    )""",
    re.VERBOSE,
)


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """Lex ``source`` into a token list ending with ``EOF``."""
    tokens: list[Token] = []
    append = tokens.append
    fixed = FIXED_TOKENS.get
    ident, integer = TokenKind.IDENT, TokenKind.INT
    # tuple.__new__ is what the NamedTuple constructors call; going to it
    # directly saves a Python frame per record, two records per token.
    new = tuple.__new__
    line = 1
    line_start = 0  # offset of the first character of the current line
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        if group == "newline":
            line += 1
            line_start = match.end()
            continue
        location = new(
            SourceLocation, (line, match.start(group) - line_start + 1, filename)
        )
        if group == "fixed_or_ident":
            text = match[group]
            kind = fixed(text)
            if kind is None:
                append(new(Token, (ident, text, location)))
            else:
                append(new(Token, (kind, None, location)))
        elif group == "int":
            append(new(Token, (integer, int(match[group]), location)))
        elif group == "comment":
            newlines = match[group].count("\n")
            if newlines:
                line += newlines
                line_start = source.rindex("\n", 0, match.end()) + 1
        elif group == "unterminated":
            raise LexError("unterminated block comment", location)
        elif group == "digit_prefix":
            raise LexError("identifier may not start with a digit", location)
        else:
            raise LexError(f"unexpected character {match[group]!r}", location)
    append(Token(TokenKind.EOF, None, SourceLocation(line, len(source) - line_start + 1, filename)))
    return tokens
