"""Tests for dataflow analysis: per-signal trees, branches, dff wrapping."""

import pytest

from repro.errors import DataflowError
from repro.dataflow import analyze, elaborate
from repro.ir import KIND_CONST, KIND_OP, KIND_SIGNAL
from repro.ir.frontends import get_frontend
from repro.verilog import parse_source

extract_rtl = get_frontend("rtl").extract


def dfg(text, top=None):
    """The merged graph of ``text`` before the trim phase."""
    return analyze(elaborate(parse_source(text), top=top))


def signal_id(graph, name):
    (node_id,) = [n.node_id for n in graph.nodes
                  if n.kind == KIND_SIGNAL and n.name == name]
    return node_id


def signal_names(graph, role):
    return {n.name for n in graph.nodes
            if n.kind == KIND_SIGNAL and n.label == role}


def op_labels(graph):
    return [n.label for n in graph.nodes if n.kind == KIND_OP]


class TestCombinational:
    def test_simple_assign(self):
        graph = dfg("module m(input a, input b, output y); "
                    "assign y = a & b; endmodule")
        assert "and" in op_labels(graph)
        y = signal_id(graph, "y")
        (and_node,) = graph.successors(y)
        deps = graph.successors(and_node)
        assert {graph.nodes[d].name for d in deps} == {"a", "b"}

    def test_signal_nodes_shared(self):
        graph = dfg("module m(input a, output x, output y); "
                    "assign x = ~a; assign y = a & a; endmodule")
        names = [n.name for n in graph.nodes if n.kind == KIND_SIGNAL]
        assert names.count("a") == 1

    def test_operator_nodes_not_shared(self):
        graph = dfg("module m(input a, input b, output x, output y); "
                    "assign x = a ^ b; assign y = a ^ b; endmodule")
        assert op_labels(graph).count("xor") == 2

    def test_ternary_becomes_branch(self):
        graph = dfg("module m(input s, input a, input b, output y); "
                    "assign y = s ? a : b; endmodule")
        assert "branch" in op_labels(graph)

    def test_constants_are_const_nodes(self):
        graph = dfg("module m(output [3:0] y); assign y = 4'd5; endmodule")
        consts = [n for n in graph.nodes if n.kind == KIND_CONST]
        assert len(consts) == 1

    def test_gate_primitives(self):
        graph = dfg("module m(input a, input b, output y); "
                    "nand g (y, a, b); endmodule")
        assert "nand" in op_labels(graph)

    def test_concat_and_selects(self):
        graph = dfg("module m(input [7:0] d, output [7:0] y); "
                    "assign y = {d[3:0], d[7], 3'b0}; endmodule")
        labels = op_labels(graph)
        assert "concat" in labels
        assert "partselect" in labels
        assert "pointer" in labels

    def test_operator_label_mapping(self):
        graph = dfg("module m(input [3:0] a, input [3:0] b, output [3:0] y,"
                    " output z); assign y = a + b; assign z = a <= b; "
                    "endmodule")
        labels = op_labels(graph)
        assert "plus" in labels
        assert "le" in labels


class TestAlwaysBlocks:
    def test_comb_always_no_dff(self):
        graph = dfg("module m(input a, output reg y); "
                    "always @(*) y = ~a; endmodule")
        assert "dff" not in op_labels(graph)

    def test_clocked_always_adds_dff_and_edge(self):
        graph = dfg("module m(input clk, input d, output reg q); "
                    "always @(posedge clk) q <= d; endmodule")
        labels = op_labels(graph)
        assert "dff" in labels
        assert "posedge" in labels

    def test_negedge_label(self):
        graph = dfg("module m(input clk, input d, output reg q); "
                    "always @(negedge clk) q <= d; endmodule")
        assert "negedge" in op_labels(graph)

    def test_if_without_else_references_self(self):
        graph = dfg("module m(input clk, input en, input d, output reg q); "
                    "always @(posedge clk) if (en) q <= d; endmodule")
        q = signal_id(graph, "q")
        reachable = graph.reachable_from([q])
        assert q in reachable  # feedback: q depends on its own branch
        assert "branch" in op_labels(graph)

    def test_blocking_chain_substitutes(self):
        # y should depend on a through the intermediate blocking value.
        graph = extract_rtl("""
module m(input a, output reg y);
  reg t;
  always @(*) begin
    t = ~a;
    y = t & a;
  end
endmodule
""")
        y = signal_id(graph, "y")
        reach = graph.reachable_from([y])
        names = {graph.nodes[i].name for i in reach
                 if graph.nodes[i].kind == KIND_SIGNAL}
        assert "a" in names

    def test_case_desugars_to_branches(self):
        graph = dfg("""
module m(input [1:0] s, input a, input b, output reg y);
  always @(*) begin
    case (s)
      2'd0: y = a;
      2'd1: y = b;
      default: y = a ^ b;
    endcase
  end
endmodule
""")
        labels = op_labels(graph)
        assert labels.count("branch") == 2
        assert labels.count("eq") == 2

    def test_for_loop_unrolled(self):
        graph = dfg("""
module m(input [3:0] d, output reg p);
  integer i;
  always @(*) begin
    p = 1'b0;
    for (i = 0; i < 4; i = i + 1)
      p = p ^ d[i];
  end
endmodule
""")
        assert op_labels(graph).count("xor") == 4

    def test_partial_bit_assign(self):
        graph = dfg("""
module m(input a, input b, output reg [1:0] y);
  always @(*) begin
    y[0] = a;
    y[1] = b;
  end
endmodule
""")
        assert "partassign" in op_labels(graph)

    def test_nonconstant_loop_condition_raises(self):
        with pytest.raises(DataflowError):
            dfg("""
module m(input [3:0] n, output reg y);
  integer i;
  always @(*) begin
    y = 1'b0;
    for (i = 0; i < n; i = i + 1)
      y = ~y;
  end
endmodule
""")


class TestGraphShape:
    def test_roots_are_outputs(self):
        graph = dfg("module m(input a, output x, output y); "
                    "assign x = ~a; assign y = a; endmodule")
        assert signal_names(graph, "output") == {"x", "y"}

    def test_leaves_are_inputs(self):
        graph = dfg("module m(input a, input b, output y); "
                    "assign y = a | b; endmodule")
        assert signal_names(graph, "input") == {"a", "b"}

    def test_unelaborated_instance_rejected(self):
        source = parse_source("""
module top(input a, output y);
  leaf u (.i(a), .o(y));
endmodule
module leaf(input i, output o);
  assign o = i;
endmodule
""")
        with pytest.raises(DataflowError):
            analyze(source.modules[0])

    def test_motivational_example_same_behavior(self):
        """The paper's Fig. 1: two full adders, different code, same DFs."""
        adder1 = extract_rtl("""
module ADDER(input Num1, input Num2, input Cin,
             output reg Sum, output reg Cout);
  always @(Num1, Num2, Cin) begin
    Sum <= ((Num1 ^ Num2) ^ Cin);
    Cout <= (((Num1 ^ Num2) && Cin) || (Num1 && Num2));
  end
endmodule
""")
        adder2 = extract_rtl("""
module ADDER(Num1, Num2, Cin, Sum, Cout);
  input Num1, Num2, Cin;
  output Sum, Cout;
  wire t1, t2, t3;
  xor (t1, Num1, Num2);
  and (t2, Num1, Num2);
  and (t3, t1, Cin);
  xor (Sum, t1, Cin);
  or (Cout, t3, t2);
endmodule
""")
        # Both must contain the critical XOR chain into Sum.
        for graph in (adder1, adder2):
            sum_id = signal_id(graph, "Sum")
            reach = graph.reachable_from([sum_id])
            labels = [graph.nodes[i].label for i in reach]
            assert labels.count("xor") >= 2
