"""Lexer unit tests."""

import pytest

from repro.lang.errors import LexError, SourceLocation
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind

from tests.helpers import front_end_corpus


def kinds(source):
    return [t.kind for t in tokenize(source)]


def test_empty_input_yields_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.EOF


def test_integer_literal_value():
    tokens = tokenize("12345")
    assert tokens[0].kind is TokenKind.INT
    assert tokens[0].value == 12345


def test_zero_literal():
    assert tokenize("0")[0].value == 0


def test_identifier():
    tokens = tokenize("fooBar_9")
    assert tokens[0].kind is TokenKind.IDENT
    assert tokens[0].value == "fooBar_9"


def test_identifier_with_leading_underscore():
    assert tokenize("_x")[0].value == "_x"


@pytest.mark.parametrize(
    "word,kind",
    [
        ("class", TokenKind.KW_CLASS),
        ("extends", TokenKind.KW_EXTENDS),
        ("def", TokenKind.KW_DEF),
        ("var", TokenKind.KW_VAR),
        ("if", TokenKind.KW_IF),
        ("else", TokenKind.KW_ELSE),
        ("while", TokenKind.KW_WHILE),
        ("for", TokenKind.KW_FOR),
        ("return", TokenKind.KW_RETURN),
        ("new", TokenKind.KW_NEW),
        ("this", TokenKind.KW_THIS),
        ("true", TokenKind.KW_TRUE),
        ("false", TokenKind.KW_FALSE),
        ("null", TokenKind.KW_NULL),
        ("int", TokenKind.KW_INT),
        ("bool", TokenKind.KW_BOOL),
        ("void", TokenKind.KW_VOID),
    ],
)
def test_keywords(word, kind):
    assert kinds(word) == [kind, TokenKind.EOF]


def test_keyword_prefix_is_identifier():
    tokens = tokenize("classy")
    assert tokens[0].kind is TokenKind.IDENT
    assert tokens[0].value == "classy"


@pytest.mark.parametrize(
    "text,kind",
    [
        ("==", TokenKind.EQ),
        ("!=", TokenKind.NE),
        ("<=", TokenKind.LE),
        (">=", TokenKind.GE),
        ("&&", TokenKind.AND),
        ("||", TokenKind.OR),
        ("=", TokenKind.ASSIGN),
        ("+", TokenKind.PLUS),
        ("-", TokenKind.MINUS),
        ("*", TokenKind.STAR),
        ("/", TokenKind.SLASH),
        ("%", TokenKind.PERCENT),
        ("<", TokenKind.LT),
        (">", TokenKind.GT),
        ("!", TokenKind.NOT),
        ("(", TokenKind.LPAREN),
        (")", TokenKind.RPAREN),
        ("{", TokenKind.LBRACE),
        ("}", TokenKind.RBRACE),
        ("[", TokenKind.LBRACKET),
        ("]", TokenKind.RBRACKET),
        (",", TokenKind.COMMA),
        (";", TokenKind.SEMI),
        (":", TokenKind.COLON),
        (".", TokenKind.DOT),
    ],
)
def test_operators(text, kind):
    assert kinds(text) == [kind, TokenKind.EOF]


def test_two_char_operator_greedy():
    # "<=" must not lex as "<", "="
    assert kinds("a<=b") == [
        TokenKind.IDENT,
        TokenKind.LE,
        TokenKind.IDENT,
        TokenKind.EOF,
    ]


def test_line_comment_skipped():
    assert kinds("1 // comment here\n2") == [
        TokenKind.INT,
        TokenKind.INT,
        TokenKind.EOF,
    ]


def test_block_comment_skipped():
    assert kinds("1 /* a\nmultiline\ncomment */ 2") == [
        TokenKind.INT,
        TokenKind.INT,
        TokenKind.EOF,
    ]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("1 /* never closed")


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("a @ b")


def test_digit_prefixed_identifier_raises():
    with pytest.raises(LexError):
        tokenize("123abc")


def test_locations_track_lines_and_columns():
    tokens = tokenize("a\n  b")
    assert (tokens[0].location.line, tokens[0].location.column) == (1, 1)
    assert (tokens[1].location.line, tokens[1].location.column) == (2, 3)


def test_location_filename_recorded():
    tokens = tokenize("x", filename="file.mini")
    assert tokens[0].location.filename == "file.mini"


def test_whitespace_variants():
    assert kinds("\t 1 \r\n 2 ") == [TokenKind.INT, TokenKind.INT, TokenKind.EOF]


def test_token_str_forms():
    tokens = tokenize("x 42 +")
    assert str(tokens[0]) == "identifier(x)"
    assert str(tokens[1]) == "int-literal(42)"
    assert str(tokens[2]) == "+"


def test_realistic_snippet():
    source = "def main() { var x = 1 + 2; print(x); }"
    token_kinds = kinds(source)
    assert token_kinds[0] is TokenKind.KW_DEF
    assert token_kinds[-1] is TokenKind.EOF
    assert TokenKind.SEMI in token_kinds


# -- regressions pinned when the scanner became one regex ------------------


def lex_error(source):
    with pytest.raises(LexError) as info:
        tokenize(source)
    return info.value.message, info.value.location.line, info.value.location.column


@pytest.mark.parametrize("digit", ["²", "٣", "½"])
def test_non_ascii_digit_is_an_unexpected_character(digit):
    # str.isdigit() accepts these; int() rejects some of them.  Integer
    # literals are ASCII, so none of them starts (or continues) a token.
    assert lex_error(f"x = {digit};") == (f"unexpected character {digit!r}", 1, 5)
    assert lex_error(f"x = 1{digit};") == (f"unexpected character {digit!r}", 1, 6)


def test_non_ascii_letter_is_an_unexpected_character():
    assert lex_error("var é = 1;") == ("unexpected character 'é'", 1, 5)
    assert lex_error("\n  xé") == ("unexpected character 'é'", 2, 4)


@pytest.mark.parametrize("source", ["  123abc", "  1_", "  12x3"])
def test_digit_prefixed_identifier_is_reported_at_its_first_digit(source):
    assert lex_error(source) == ("identifier may not start with a digit", 1, 3)


def test_crlf_and_tab_whitespace_locations():
    tokens = tokenize("a\r\n\tb\r\n\r\n  c")
    assert [(t.value, t.location.line, t.location.column) for t in tokens[:-1]] == [
        ("a", 1, 1),
        ("b", 2, 2),
        ("c", 4, 3),
    ]
    assert (tokens[-1].location.line, tokens[-1].location.column) == (4, 4)


def test_token_after_multiline_block_comment_on_its_closing_line():
    tokens = tokenize("a /* one\n two\n three */ b\nc")
    assert [(t.value, t.location.line, t.location.column) for t in tokens[:-1]] == [
        ("a", 1, 1),
        ("b", 3, 11),
        ("c", 4, 1),
    ]


def test_block_comment_is_not_nesting_and_may_hold_comment_openers():
    assert kinds("/* /* // */ 1") == [TokenKind.INT, TokenKind.EOF]
    assert kinds("/**/1/***/") == [TokenKind.INT, TokenKind.EOF]


def test_slash_alone_vs_line_comment_vs_block_comment():
    assert kinds("a / b") == [TokenKind.IDENT, TokenKind.SLASH, TokenKind.IDENT, TokenKind.EOF]
    assert kinds("a // b") == [TokenKind.IDENT, TokenKind.EOF]
    assert kinds("a /* b */") == [TokenKind.IDENT, TokenKind.EOF]
    assert kinds("a / /b") == [
        TokenKind.IDENT, TokenKind.SLASH, TokenKind.SLASH, TokenKind.IDENT, TokenKind.EOF,
    ]
    assert kinds("6/2") == [TokenKind.INT, TokenKind.SLASH, TokenKind.INT, TokenKind.EOF]


def test_unterminated_block_comment_is_reported_where_it_opens():
    assert lex_error("a\n  b /* never\nclosed *") == ("unterminated block comment", 2, 5)
    assert lex_error("/*/") == ("unterminated block comment", 1, 1)


def test_lone_ampersand_and_pipe_are_unexpected():
    assert lex_error("a & b") == ("unexpected character '&'", 1, 3)
    assert lex_error("a | b") == ("unexpected character '|'", 1, 3)


def test_eof_location_is_past_trailing_trivia():
    eof = tokenize("a  \n  // done\n ")[-1]
    assert (eof.kind, eof.location.line, eof.location.column) == (TokenKind.EOF, 3, 2)


def test_form_feed_and_vertical_tab_are_not_whitespace():
    assert lex_error("a \x0c b") == ("unexpected character '\\x0c'", 1, 3)
    assert lex_error("a \x0b b") == ("unexpected character '\\x0b'", 1, 3)


def test_tokens_and_locations_are_immutable_value_records():
    first, again = tokenize("x")[0], tokenize("x")[0]
    assert first == again and hash(first) == hash(again)
    assert first.location == SourceLocation(1, 1)
    assert str(first.location) == "<string>:1:1"
    with pytest.raises(AttributeError):
        first.kind = TokenKind.INT
    with pytest.raises(AttributeError):
        first.location.line = 2


# Every token's text for the location property below: fixed kinds spell
# themselves, the other two spell their value.
def token_text(token):
    return token.kind.value if token.value is None else str(token.value)


CORPUS = front_end_corpus()


@pytest.mark.parametrize("name", CORPUS)
def test_every_token_location_points_at_its_own_text(name):
    """Reference-free: line ``location.line`` starts with the token's text
    at ``location.column``, for every token of every program."""
    source = CORPUS[name]
    lines = source.split("\n")
    tokens = tokenize(source, name)
    assert tokens[-1].kind is TokenKind.EOF
    for token in tokens[:-1]:
        assert token.location.filename == name
        line = lines[token.location.line - 1]
        assert line.startswith(token_text(token), token.location.column - 1), token
    # Locations never go backwards.
    positions = [(t.location.line, t.location.column) for t in tokens]
    assert positions == sorted(positions)
