"""Front end of the Mini language: lexer, parser, and AST."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        "LexError": ".errors",
        "MiniError": ".errors",
        "ParseError": ".errors",
        "SourceLocation": ".errors",
        "TypeError_": ".errors",
        "tokenize": ".lexer",
        "Parser": ".parser",
        "parse": ".parser",
        "print_expr": ".printer",
        "print_program": ".printer",
    },
)
