"""Lexer for the Mini language: one master regex driven by ``finditer``.

Each match is optional whitespace followed by exactly one lexeme — an
identifier, keyword or operator, an integer, a comment, or a single
offending character — so ``finditer`` can skip nothing but trailing
whitespace.  A token records where its lexeme starts (the match offset)
and the one :class:`~repro.lang.errors.Source` shared by the whole
text; the lexer keeps no line bookkeeping, and a line and column are
worked out only when an error (or a caller) reads ``token.location``.

Identifiers and integer literals are ASCII (``[A-Za-z_][A-Za-z0-9_]*``
and ``[0-9]+``); ``//`` line comments and non-nesting ``/* ... */``
block comments are skipped; the keywords and operators are the values
of :class:`repro.lang.tokens.TokenKind`.
"""

from __future__ import annotations

import re

from repro.lang.errors import LexError, Source
from repro.lang.tokens import FIXED_TOKENS, Token, TokenKind

_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?:
      (?P<fixed_or_ident> [A-Za-z_][A-Za-z0-9_]*
                        | [=!<>]=? | && | \|\| | [-+*%(){}\[\],;:.] | /(?![/*]) )
    | (?P<int>            [0-9]+ (?![A-Za-z0-9_]) )
    | (?P<comment>        //[^\n]* | /\*(?s:.*?)\*/ )
    | (?P<unterminated>   /\* )
    | (?P<digit_prefix>   [0-9] )
    | (?P<unexpected>     [^ \t\r\n] )
    )""",
    re.VERBOSE,
)


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """Lex ``source`` into a token list ending with ``EOF``."""
    shared = Source(source, filename)
    tokens: list[Token] = []
    append = tokens.append
    fixed = FIXED_TOKENS.get
    ident, integer = TokenKind.IDENT, TokenKind.INT
    # tuple.__new__ is what the NamedTuple constructor calls; going to it
    # directly saves a Python frame per token.
    new = tuple.__new__
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        if group == "fixed_or_ident":
            text = match[group]
            kind = fixed(text)
            if kind is None:
                append(new(Token, (ident, text, match.start(group), shared)))
            else:
                append(new(Token, (kind, None, match.start(group), shared)))
        elif group == "int":
            append(new(Token, (integer, int(match[group]), match.start(group), shared)))
        elif group != "comment":
            at = shared.location(match.start(group))
            if group == "unterminated":
                raise LexError("unterminated block comment", at)
            if group == "digit_prefix":
                raise LexError("identifier may not start with a digit", at)
            raise LexError(f"unexpected character {match[group]!r}", at)
    append(Token(TokenKind.EOF, None, len(source), shared))
    return tokens
