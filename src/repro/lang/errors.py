"""Source positions and the error types shared by the lexer, parser, and
type checker.

A token records only its offset into a shared :class:`Source`; an AST
node records only its token.  Line and column are worked out when
something reads ``.location`` — in practice only an error does, once,
when it is raised — so a program that compiles never builds a
:class:`SourceLocation` at all.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in a source file: 1-based line and column."""

    line: int
    column: int
    filename: str = "<string>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


_NEWLINE = re.compile("\n")


class Source:
    """One source text and the name it came from, shared by every token
    lexed from it.

    Two sources are equal when their text and filename are, so tokens
    lexed twice from the same text compare (and hash) equal.
    """

    __slots__ = ("text", "filename", "_line_starts")

    def __init__(self, text: str, filename: str = "<string>"):
        self.text = text
        self.filename = filename
        self._line_starts: list[int] | None = None

    def location(self, offset: int) -> SourceLocation:
        """The line and column of ``offset``; only ``\\n`` ends a line.

        The first call builds the table of line-start offsets, which every
        later call searches with ``bisect``."""
        starts = self._line_starts
        if starts is None:
            starts = [0]
            starts.extend(match.end() for match in _NEWLINE.finditer(self.text))
            self._line_starts = starts
        line = bisect_right(starts, offset)
        return SourceLocation(line, offset - starts[line - 1] + 1, self.filename)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Source):
            return NotImplemented
        return self is other or (self.text, self.filename) == (other.text, other.filename)

    def __hash__(self) -> int:
        return hash((self.text, self.filename))


class MiniError(Exception):
    """Base class for all errors raised by the Mini language toolchain.

    ``where`` may be a :class:`SourceLocation`, a token or an AST node
    (resolved here, once), or ``None`` for whole-program errors."""

    def __init__(self, message: str, where=None):
        location = where
        if where is not None and not isinstance(where, SourceLocation):
            location = where.location
        super().__init__(message if location is None else f"{location}: {message}")
        self.message = message
        self.location = location


class LexError(MiniError):
    """Raised when the lexer encounters an invalid character or literal."""


class ParseError(MiniError):
    """Raised when the parser encounters an unexpected token."""


class TypeError_(MiniError):
    """Raised by semantic analysis for type and resolution errors.

    Named with a trailing underscore to avoid shadowing the builtin.
    """
