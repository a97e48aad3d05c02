"""Tests for hierarchy elaboration (flattening)."""

import pytest

from repro.errors import ElaborationError
from repro.dataflow.elaborate import elaborate, find_top_module
from repro.verilog import ast_nodes as ast
from repro.verilog.parser import parse

HIERARCHY = """
module top(input a, input b, output y);
  wire t;
  leaf u1 (.i(a), .o(t));
  leaf u2 (.i(t & b), .o(y));
endmodule
module leaf(input i, output o);
  assign o = ~i;
endmodule
"""


def signal_names(module):
    names = set()
    for item in module.items:
        if isinstance(item, ast.NetDecl):
            names.update(item.names)
    return names


class TestTopDetection:
    def test_never_instantiated_module_is_top(self):
        top = find_top_module(parse(HIERARCHY))
        assert top.name == "top"

    def test_explicit_top(self):
        top = find_top_module(parse(HIERARCHY), top="leaf")
        assert top.name == "leaf"

    def test_unknown_top_raises(self):
        with pytest.raises(ElaborationError):
            find_top_module(parse(HIERARCHY), top="nope")


class TestFlattening:
    def test_instances_inlined(self):
        flat = elaborate(parse(HIERARCHY))
        assert not any(isinstance(i, ast.ModuleInstance)
                       for i in flat.items)

    def test_locals_prefixed(self):
        flat = elaborate(parse(HIERARCHY))
        names = signal_names(flat)
        assert "u1.i" in names
        assert "u2.o" in names

    def test_port_connections_become_assigns(self):
        flat = elaborate(parse(HIERARCHY))
        assigns = [i for i in flat.items if isinstance(i, ast.Assign)]
        lhs_names = {a.lhs.name for a in assigns
                     if isinstance(a.lhs, ast.Identifier)}
        assert "u1.i" in lhs_names      # input: child net driven by actual
        assert "t" in lhs_names         # output: parent net driven by child

    def test_nested_hierarchy(self):
        source = parse("""
module top(input x, output y);
  mid m (.i(x), .o(y));
endmodule
module mid(input i, output o);
  leaf l (.i(i), .o(o));
endmodule
module leaf(input i, output o);
  assign o = i;
endmodule
""")
        flat = elaborate(source)
        assert "m.l.i" in signal_names(flat)

    def test_undefined_module_raises(self):
        source = parse("module top(input a); ghost g (.x(a)); endmodule")
        with pytest.raises(ElaborationError):
            elaborate(source)

    def test_recursive_instantiation_detected(self):
        source = parse("""
module a(input x); b u (.x(x)); endmodule
module b(input x); a u (.x(x)); endmodule
""")
        # Neither module is a valid top (both instantiated) -> error.
        with pytest.raises(ElaborationError):
            elaborate(source)

    def test_positional_connections(self):
        source = parse("""
module top(input a, output y);
  leaf u1 (y, a);
endmodule
module leaf(output o, input i);
  assign o = i;
endmodule
""")
        flat = elaborate(source)
        assert "u1.o" in signal_names(flat)

    def test_too_many_positional_connections(self):
        source = parse("""
module top(input a, output y);
  leaf u1 (y, a, a);
endmodule
module leaf(output o, input i);
  assign o = i;
endmodule
""")
        with pytest.raises(ElaborationError):
            elaborate(source)

    def test_unknown_named_port(self):
        source = parse("""
module top(input a);
  leaf u1 (.bogus(a));
endmodule
module leaf(input i);
endmodule
""")
        with pytest.raises(ElaborationError):
            elaborate(source)

    def test_unconnected_port_left_floating(self):
        source = parse("""
module top(input a, output y);
  leaf u1 (.i(a), .o());
  assign y = a;
endmodule
module leaf(input i, output o);
  assign o = i;
endmodule
""")
        flat = elaborate(source)
        assert "u1.o" in signal_names(flat)


def node_ids(item):
    """ids of every AST node in ``item``'s tree, ``item`` included."""
    found = set()
    stack = [item]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, ast.Node):
            found.add(id(node))
            stack.extend(vars(node).values())
    return found


class TestSharing:
    def test_flat_module_reuses_its_items(self):
        source = parse("""
module m(input clk, input a, input b, output y, output z);
  wire t;
  reg q;
  and g1 (t, a, b);
  or (y, t, q);
  assign z = t ^ q;
  always @(posedge clk) q <= t;
endmodule
""")
        parsed = source.modules[0]
        flat = elaborate(source)
        assert len(flat.items) == len(parsed.items)
        assert all(got is want for got, want in zip(flat.items, parsed.items))

    def test_instances_get_their_own_nodes(self):
        source = parse(HIERARCHY)
        top, leaf = source.modules
        flat = elaborate(source)
        inlined = [item for item in flat.items
                   if not any(item is own for own in top.items)]
        seen = set()
        for item in inlined:
            ids = node_ids(item)
            assert not ids & seen
            seen |= ids
        assert not seen & set().union(*map(node_ids, leaf.items))
        names = {item.lhs.name for item in inlined
                 if isinstance(item, ast.Assign)
                 and isinstance(item.lhs, ast.Identifier)}
        assert {"u1.o", "u2.o"} <= names


class TestParameters:
    def test_parameters_substituted(self):
        source = parse("""
module top(input [7:0] d, output [7:0] q);
  pipe #(.W(8)) p (.d(d), .q(q));
endmodule
module pipe #(parameter W = 4) (input [W-1:0] d, output [W-1:0] q);
  wire [W-1:0] mid;
  assign mid = d;
  assign q = mid;
endmodule
""")
        flat = elaborate(source)
        decls = {n: i for i in flat.items if isinstance(i, ast.NetDecl)
                 for n in i.names}
        width = decls["p.mid"].width
        assert width.msb.value == 7

    def test_positional_parameter_override(self):
        source = parse("""
module top(input [15:0] d, output [15:0] q);
  pipe #(16) p (.d(d), .q(q));
endmodule
module pipe #(parameter W = 4) (input [W-1:0] d, output [W-1:0] q);
  assign q = d;
endmodule
""")
        flat = elaborate(source)
        port_decl = [i for i in flat.items if isinstance(i, ast.NetDecl)
                     and i.names == ["p.d"]][0]
        assert port_decl.width.msb.value == 15

    def test_localparam_used_in_body(self):
        source = parse("""
module top(output [3:0] q);
  localparam N = 4;
  assign q = N;
endmodule
""")
        flat = elaborate(source)
        assign = [i for i in flat.items if isinstance(i, ast.Assign)][0]
        assert assign.rhs.value == 4

    def test_parameter_width_in_ports(self):
        source = parse("""
module top #(parameter W = 8) (input [W-1:0] d, output [W-1:0] q);
  assign q = d;
endmodule
""")
        flat = elaborate(source)
        assert flat.ports[0].width.msb.value == 7
