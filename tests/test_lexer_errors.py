"""Pinned message, line and column of every ``LexerError`` kind.

Each case names where the lexer stops: the offending character, the
position where a missing part was expected, or the end of the input for
constructs left open.
"""

import pytest

from repro.errors import LexerError
from repro.verilog.lexer import tokenize

CASES = [
    # Unterminated block comment: reported at the end of the input.
    ("a\n  /* open\n\n", "unterminated block comment", 4, 1),
    ("x /* a\n  b", "unterminated block comment", 2, 4),
    # Invalid base character: the character after ' (and an optional s).
    ("x = 4'q1010;", "invalid base character 'q' in literal", 1, 7),
    ("y\n  'sS0", "invalid base character 'S' in literal", 2, 5),
    ("w = 4's", "invalid base character '' in literal", 1, 8),
    # An apostrophe at the very end is reported one column past it.
    ("w = 4'", "invalid base character '' in literal", 1, 8),
    ("'", "invalid base character '' in literal", 1, 3),
    ("'\nx", "invalid base character '\\n' in literal", 1, 2),
    # Based literal without digits: where the first digit should be.
    ("x = \n 8'h;", "based literal has no digits", 2, 5),
    ("12'sd", "based literal has no digits", 1, 6),
    # Unterminated string: at the breaking newline or the end of input.
    ('y = "abc\n";', "unterminated string literal", 1, 9),
    ('a\n y = "abc', "unterminated string literal", 2, 10),
    # Stray directive: at the backtick.
    (" `define X 1", "stray compiler directive (run the preprocessor first)",
     1, 2),
    ("a\n\t`W", "stray compiler directive (run the preprocessor first)", 2, 2),
    # Unexpected character: at the character.
    ("wire a;\n  b = \x01;", "unexpected character '\\x01'", 2, 7),
    ("a \x0b b", "unexpected character '\\x0b'", 1, 3),
    ("café", "unexpected character 'é'", 1, 4),
    # Empty escaped identifier: just after the backslash.
    ("\\ a", "empty escaped identifier", 1, 2),
    ("a /* c */ \\", "empty escaped identifier", 1, 12),
]


@pytest.mark.parametrize("text,message,line,column", CASES)
def test_error_message_and_position(text, message, line, column):
    with pytest.raises(LexerError) as excinfo:
        tokenize(text)
    error = excinfo.value
    assert (error.line, error.column) == (line, column)
    assert str(error) == f"{message} at line {line}, column {column}"


def test_positions_count_lines_inside_block_comments():
    tokens = tokenize("a /* one\ntwo\n */ b\n  \\esc! c")
    assert [(t.kind, t.value, t.line, t.column) for t in tokens] == [
        ("IDENT", "a", 1, 1), ("IDENT", "b", 3, 5),
        ("IDENT", "esc!", 4, 3), ("IDENT", "c", 4, 9), ("EOF", "", 4, 10)]


def test_sized_literal_keeps_underscores_in_its_size():
    tokens = tokenize("1_6'h_f 1_6")
    assert [(t.kind, t.value) for t in tokens[:-1]] == [
        ("BASED", "1_6'h_f"), ("NUMBER", "16")]


def test_token_repr():
    assert repr(tokenize("q")[0]) == "Token(IDENT, 'q', L1)"
