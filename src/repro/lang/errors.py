"""Source-level error types shared by the lexer, parser, and type checker.

Every front-end error carries a :class:`SourceLocation` so that tooling
(and test assertions) can point at the offending token.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in a source file: 1-based line and column."""

    line: int
    column: int
    filename: str = "<string>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class MiniError(Exception):
    """Base class for all errors raised by the Mini language toolchain."""


class LexError(MiniError):
    """Raised when the lexer encounters an invalid character or literal."""

    def __init__(self, message: str, location: SourceLocation):
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


class ParseError(MiniError):
    """Raised when the parser encounters an unexpected token."""

    def __init__(self, message: str, location: SourceLocation):
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


class TypeError_(MiniError):
    """Raised by semantic analysis for type and resolution errors.

    Named with a trailing underscore to avoid shadowing the builtin.
    """

    def __init__(self, message: str, location: SourceLocation | None = None):
        prefix = f"{location}: " if location is not None else ""
        super().__init__(f"{prefix}{message}")
        self.message = message
        self.location = location
