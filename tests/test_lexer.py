"""Unit tests for the Verilog lexer."""

import pytest

from repro.designs import materialize_corpus, materialize_netlist_corpus
from repro.errors import LexerError
from repro.verilog import preprocess
from repro.verilog.lexer import tokenize
from repro.verilog.tokens import (
    BASED_NUMBER,
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    PUNCT,
    STRING,
)


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_gives_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == EOF

    def test_identifier(self):
        tokens = tokenize("foo_bar9$x")
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "foo_bar9$x"

    def test_keyword_recognized(self):
        tokens = tokenize("module wire assign")
        assert [t.kind for t in tokens[:-1]] == [KEYWORD] * 3

    def test_identifier_prefixed_by_keyword_is_ident(self):
        tokens = tokenize("wiremesh moduleX")
        assert [t.kind for t in tokens[:-1]] == [IDENT, IDENT]

    def test_decimal_number(self):
        tokens = tokenize("42")
        assert tokens[0].kind == NUMBER
        assert tokens[0].value == "42"

    def test_number_with_underscores(self):
        tokens = tokenize("1_000_000")
        assert tokens[0].value == "1000000"

    def test_based_number_hex(self):
        tokens = tokenize("8'hFF")
        assert tokens[0].kind == BASED_NUMBER
        assert tokens[0].value == "8'hFF"

    def test_based_number_unsized(self):
        tokens = tokenize("'b0101")
        assert tokens[0].kind == BASED_NUMBER

    def test_based_number_signed_marker(self):
        tokens = tokenize("4'sb1010")
        assert tokens[0].kind == BASED_NUMBER

    def test_based_number_with_x_z(self):
        tokens = tokenize("4'b1xz0")
        assert tokens[0].kind == BASED_NUMBER

    def test_string_literal(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind == STRING
        assert tokens[0].value == "hello world"

    def test_escaped_identifier(self):
        tokens = tokenize("\\weird!name rest")
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "weird!name"
        assert tokens[1].value == "rest"


class TestOperators:
    @pytest.mark.parametrize("op", ["<<<", ">>>", "===", "!==", "<<", ">>",
                                    "<=", ">=", "==", "!=", "&&", "||", "~&",
                                    "~|", "~^", "**", "+:", "-:"])
    def test_multichar_operator_is_single_token(self, op):
        tokens = tokenize(op)
        assert tokens[0].kind == PUNCT
        assert tokens[0].value == op

    def test_greedy_matching_of_shift(self):
        # "<<<" must lex as one token, not "<<" then "<".
        assert values("a <<< b") == ["a", "<<<", "b"]

    def test_single_char_operators(self):
        assert values("a+b-c") == ["a", "+", "b", "-", "c"]

    def test_brackets_and_braces(self):
        assert values("{a[1], b}") == ["{", "a", "[", "1", "]", ",", "b", "}"]


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("a /* never closed")

    def test_line_numbers_tracked(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].column == 3

    @pytest.mark.parametrize("text,expected", [
        ("a \t\f\r", [(IDENT, 1, 1), (EOF, 1, 6)]),
        ("a\n  \t", [(IDENT, 1, 1), (EOF, 2, 4)]),
        ("  ", [(EOF, 1, 3)]),
    ])
    def test_trailing_blanks_end_the_stream(self, text, expected):
        assert [(t.kind, t.line, t.column)
                for t in tokenize(text)] == expected

    def test_long_trailing_blank_run_lexes_in_linear_time(self):
        tokens = tokenize("a" + " \t" * 100_000)
        assert [(t.kind, t.column) for t in tokens] == [(IDENT, 1),
                                                        (EOF, 200_002)]


def _lexed(*args):
    try:
        return tokenize(*args)
    except LexerError as error:
        return str(error)


class TestSlices:
    TEXT = "a /* b\n */ 4'b1 \"s\" 8'h\n 'q\n  x /* open"

    def test_endpos_lexes_as_if_the_text_ended_there(self):
        for end in range(len(self.TEXT) + 1):
            assert _lexed(self.TEXT, 0, end) == _lexed(self.TEXT[:end])

    def test_pos_continues_the_whole_text_at_a_token(self):
        text = "a /* b\n */ c\n  d \\e f"
        tokens = tokenize(text)
        lines = text.split("\n")
        for index, token in enumerate(tokens[:-1]):
            line_start = sum(len(line) + 1 for line in lines[:token.line - 1])
            start = line_start + token.column - 1
            assert tokenize(text, start, None, token.line,
                            line_start) == tokens[index:]


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("a \x01 b")

    def test_stray_directive_rejected(self):
        with pytest.raises(LexerError):
            tokenize("`define X 1")

    def test_based_literal_without_digits(self):
        with pytest.raises(LexerError):
            tokenize("4'h")

    def test_bad_base_character(self):
        with pytest.raises(LexerError):
            tokenize("4'q1010")

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize('"no closing quote')

    def test_error_carries_location(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("ab\ncd \x02")
        assert excinfo.value.line == 2


class TestRealisticSnippets:
    def test_module_header(self):
        text = "module top(input clk, output reg [7:0] q);"
        token_values = values(text)
        assert token_values[0] == "module"
        assert "input" in token_values
        assert token_values[-1] == ";"

    def test_gate_instance(self):
        assert values("xor g1 (s, a, b);") == \
            ["xor", "g1", "(", "s", ",", "a", ",", "b", ")", ";"]

    def test_nonblocking_assign_lexes_le(self):
        # '<=' is one token; the parser disambiguates assign vs compare.
        assert "<=" in values("q <= d;")


@pytest.fixture(scope="module")
def corpus_sources(tmp_path_factory):
    """Preprocessed text of the generated RTL and netlist corpora."""
    root = tmp_path_factory.mktemp("lexed")
    paths = (materialize_corpus(root / "rtl", instances_per_design=2)
             + materialize_netlist_corpus(root / "net",
                                          instances_per_design=2))
    return [preprocess(path.read_text()) for path in paths]


def test_positions_point_at_token_text(corpus_sources):
    """Every identifier, keyword and punctuation token's (line, column)
    is where its own text starts, blanks before it notwithstanding."""
    checked = 0
    for text in corpus_sources:
        lines = text.split("\n")
        for token in tokenize(text):
            if token.kind not in (IDENT, KEYWORD, PUNCT):
                continue
            start = token.column - 1
            line = lines[token.line - 1]
            assert line[start:start + len(token.value)] == token.value
            checked += 1
    assert checked > 50000
