"""Front end of the Mini language: lexer, parser, and AST."""

from repro.lang.errors import LexError, MiniError, ParseError, SourceLocation, TypeError_
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse
from repro.lang.printer import print_expr, print_program

__all__ = [
    "LexError",
    "MiniError",
    "ParseError",
    "Parser",
    "SourceLocation",
    "TypeError_",
    "parse",
    "print_expr",
    "print_program",
    "tokenize",
]
