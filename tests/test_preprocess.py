"""Unit tests for the Verilog preprocessor."""

import pytest

from repro.errors import ParseError, PreprocessorError
from repro.verilog import parse_source
from repro.verilog.preprocess import Preprocessor, preprocess, strip_comments


class TestStripComments:
    def test_line_comment(self):
        assert strip_comments("a // hi\nb") == "a \nb"

    def test_block_comment_preserves_lines(self):
        out = strip_comments("a /* x\ny\nz */ b")
        assert out.count("\n") == 2
        assert "x" not in out

    def test_comment_inside_string_kept(self):
        assert strip_comments('x = "//not a comment";') == \
            'x = "//not a comment";'

    def test_unterminated_block_raises(self):
        with pytest.raises(PreprocessorError):
            strip_comments("/* open")

    def test_comment_markers_inside_string_survive(self):
        text = 'x = "a // b /* c */ d"; // gone\ny = "/*";'
        assert strip_comments(text) == 'x = "a // b /* c */ d"; \ny = "/*";'

    def test_block_comment_keeps_later_error_lines(self):
        text = ("module m(input a, output y);\n"
                "/* one\ntwo\nthree */ // tail\n"
                "  assign y = ;\n"
                "endmodule\n")
        assert strip_comments(text).count("\n") == text.count("\n")
        with pytest.raises(ParseError) as excinfo:
            parse_source(text)
        assert excinfo.value.line == 5

    def test_unclosed_string_at_end_passes_through(self):
        assert strip_comments('a /* c */ = "open // end') == \
            'a  = "open // end'

    def test_slash_without_comment_kept(self):
        text = "assign q = a / b;\nassign r = a /b;"
        assert strip_comments(text) == text

    def test_string_without_slash_kept(self):
        text = 'x = "a b";\ny = "";'
        assert strip_comments(text) == text

    def test_text_without_slash_or_quote_is_returned_as_is(self):
        text = "module m(input a, output y);\n  not (y, a);\nendmodule\n"
        assert strip_comments(text) is text
        assert preprocess(text) == text

    @pytest.mark.parametrize("text,message", [
        ('x = "broken\n";', "unterminated string literal"),
        ("a = b; /* never closed", "unterminated block comment"),
        ("a /*/ b", "unterminated block comment"),
    ])
    def test_broken_string_and_bare_block_open_raise(self, text, message):
        with pytest.raises(PreprocessorError, match=message):
            strip_comments(text)


class TestDefine:
    def test_simple_define_expansion(self):
        out = preprocess("`define W 8\nwire [`W-1:0] x;")
        assert "wire [8-1:0] x;" in out

    def test_define_without_value(self):
        out = preprocess("`define FLAG\n`ifdef FLAG\nyes\n`endif")
        assert "yes" in out

    def test_redefine_overrides(self):
        out = preprocess("`define W 4\n`define W 16\nx `W")
        assert "x 16" in out

    def test_undef_removes_macro(self):
        text = "`define F\n`undef F\n`ifdef F\nyes\n`else\nno\n`endif"
        out = preprocess(text)
        assert "no" in out and "yes" not in out

    def test_nested_macro_expansion(self):
        text = "`define A 1\n`define B `A + 1\nx = `B;"
        assert "x = 1 + 1;" in preprocess(text)

    def test_recursive_macro_detected(self):
        text = "`define A `B\n`define B `A\nx `A"
        with pytest.raises(PreprocessorError):
            preprocess(text)

    def test_undefined_macro_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("x = `NOPE;")

    def test_function_like_macro_rejected(self):
        with pytest.raises(PreprocessorError):
            preprocess("`define MAX(a,b) a\n")

    def test_initial_defines_argument(self):
        out = preprocess("`ifdef SIM\nsim\n`endif", defines={"SIM": ""})
        assert "sim" in out


class TestConditionals:
    def test_ifdef_taken(self):
        out = preprocess("`define X\n`ifdef X\nkeep\n`endif")
        assert "keep" in out

    def test_ifdef_not_taken(self):
        out = preprocess("`ifdef X\ndrop\n`endif")
        assert "drop" not in out

    def test_ifndef(self):
        out = preprocess("`ifndef X\nkeep\n`endif")
        assert "keep" in out

    def test_else_branch(self):
        out = preprocess("`ifdef X\na\n`else\nb\n`endif")
        assert "b" in out and "a\n" not in out

    def test_elsif(self):
        text = "`define B\n`ifdef A\na\n`elsif B\nb\n`else\nc\n`endif"
        out = preprocess(text)
        assert "b" in out
        assert "a\n" not in out and "c" not in out

    def test_nested_conditionals(self):
        text = ("`define OUTER\n`ifdef OUTER\n`ifdef INNER\nx\n`else\ny\n"
                "`endif\n`endif")
        out = preprocess(text)
        assert "y" in out and "x\n" not in out

    def test_define_inside_dead_region_ignored(self):
        text = "`ifdef NO\n`define X\n`endif\n`ifdef X\nbad\n`endif"
        assert "bad" not in preprocess(text)

    def test_unterminated_ifdef_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("`ifdef X\nabc")

    def test_unmatched_endif_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("`endif")

    def test_unmatched_else_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("`else")


class TestInclude:
    def test_include_from_memory(self):
        processor = Preprocessor(
            include_sources={"defs.vh": "`define W 8\nwire [`W:0] bus;"})
        out = processor.process('`include "defs.vh"\nwire [`W-1:0] x;')
        assert "wire [8:0] bus;" in out
        assert "wire [8-1:0] x;" in out

    def test_include_from_disk(self, tmp_path):
        header = tmp_path / "h.vh"
        header.write_text("wire from_header;")
        out = preprocess('`include "h.vh"', include_dirs=[tmp_path])
        assert "wire from_header;" in out

    def test_missing_include_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess('`include "nothere.vh"')

    def test_recursive_include_detected(self):
        processor = Preprocessor(
            include_sources={"a.vh": '`include "a.vh"'})
        with pytest.raises(PreprocessorError):
            processor.process('`include "a.vh"')


class TestIgnoredDirectives:
    @pytest.mark.parametrize("directive", [
        "`timescale 1ns/1ps", "`default_nettype none", "`celldefine",
        "`endcelldefine", "`resetall",
    ])
    def test_directive_dropped(self, directive):
        out = preprocess(f"{directive}\nwire x;")
        assert "wire x;" in out
        assert "`" not in out
