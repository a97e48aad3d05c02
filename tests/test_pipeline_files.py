"""Tests for the RTL frontend's file entry point and preprocessor state."""

from repro.ir import KIND_SIGNAL
from repro.ir.frontends import get_frontend
from repro.verilog import Preprocessor, preprocess

RTL = get_frontend("rtl")

HIERARCHICAL = """
`define WIDTH 4
module top(input [`WIDTH-1:0] a, input [`WIDTH-1:0] b,
           output [`WIDTH:0] s);
  add u (.x(a), .y(b), .z(s));
endmodule
module add(input [`WIDTH-1:0] x, input [`WIDTH-1:0] y,
           output [`WIDTH:0] z);
  assign z = x + y;
endmodule
"""


class TestPipelineFiles:
    def test_extract_file(self, tmp_path):
        path = tmp_path / "design.v"
        path.write_text(HIERARCHICAL)
        graph = RTL.extract_file(path)
        assert graph.name == "top"
        assert "u.z" in {n.name for n in graph.nodes if n.kind == KIND_SIGNAL}

    def test_extract_with_explicit_top(self, tmp_path):
        path = tmp_path / "design.v"
        path.write_text(HIERARCHICAL)
        graph = RTL.extract_file(path, top="add")
        assert graph.name == "add"

    def test_defines_flow_through_pipeline(self):
        cleaned = preprocess("""
module m(input a, input b, output y);
`ifdef MODE
  assign y = a & b;
`else
  assign y = a | b;
`endif
endmodule
""", defines={"MODE": "1"})
        graph = RTL.extract_preprocessed(cleaned)
        assert "and" in graph.labels()
        assert "or" not in graph.labels()

    def test_include_dirs(self, tmp_path):
        (tmp_path / "ops.vh").write_text("`define OP ^\n")
        cleaned = preprocess("""
`include "ops.vh"
module m(input a, input b, output y);
  assign y = a `OP b;
endmodule
""", include_dirs=[tmp_path])
        graph = RTL.extract_preprocessed(cleaned)
        assert "xor" in graph.labels()


class TestPreprocessorState:
    def test_defines_property_reflects_table(self):
        processor = Preprocessor(defines={"A": "1"})
        processor.process("`define B 2\n")
        table = processor.defines
        assert table["A"] == "1"
        assert table["B"] == "2"

    def test_defines_property_is_a_copy(self):
        processor = Preprocessor()
        processor.defines["X"] = "oops"
        assert "X" not in processor.defines


class TestGraphNaming:
    def test_graph_named_after_top_module(self):
        graph = RTL.extract(
            "module funky(input a, output y); assign y = a; endmodule")
        assert graph.name == "funky"

    def test_rename_allowed(self):
        graph = RTL.extract(
            "module m(input a, output y); assign y = a; endmodule")
        graph.name = "instance_0"
        assert graph.stats()["name"] == "instance_0"
