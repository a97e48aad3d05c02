"""Unit tests for the Verilog parser."""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexerError, ParseError
from repro.verilog import ast_nodes as ast
from repro.verilog.lexer import tokenize
from repro.verilog.parser import Parser, parse, parse_module
from repro.verilog.tokens import GATE_PRIMITIVES


class TestModuleHeaders:
    def test_ansi_ports(self):
        module = parse_module(
            "module m(input a, output reg [7:0] q); endmodule")
        assert module.name == "m"
        assert module.port_names() == ["a", "q"]
        assert module.ports[0].direction == "input"
        assert module.ports[1].is_reg
        assert module.ports[1].width is not None

    def test_non_ansi_ports_merged(self):
        module = parse_module("""
module m(a, b, y);
  input [3:0] a, b;
  output y;
  assign y = a[0] & b[0];
endmodule
""")
        assert module.ports[0].direction == "input"
        assert module.ports[0].width is not None
        assert module.ports[2].direction == "output"
        # port declarations must not linger as module items
        assert not any(isinstance(i, ast.Port) for i in module.items)

    def test_direction_carries_over_in_port_list(self):
        module = parse_module("module m(input a, b, output y); endmodule")
        assert module.ports[1].direction == "input"
        assert module.ports[2].direction == "output"

    def test_parameter_header(self):
        module = parse_module(
            "module m #(parameter W = 8, parameter D = 2) (input x); "
            "endmodule")
        assert [p.name for p in module.params] == ["W", "D"]
        assert module.params[0].value.value == 8

    def test_empty_port_list(self):
        module = parse_module("module m(); endmodule")
        assert module.ports == []

    def test_multiple_modules(self):
        source = parse("module a(); endmodule module b(); endmodule")
        assert [m.name for m in source.modules] == ["a", "b"]


class TestDeclarations:
    def test_wire_declaration(self):
        module = parse_module("module m(); wire [3:0] a, b; endmodule")
        decl = module.items[0]
        assert isinstance(decl, ast.NetDecl)
        assert decl.names == ["a", "b"]
        assert decl.kind == "wire"

    def test_wire_with_init_becomes_assign(self):
        module = parse_module(
            "module m(input x); wire y = ~x; endmodule")
        assert isinstance(module.items[0], ast.NetDecl)
        assert isinstance(module.items[1], ast.Assign)

    def test_reg_and_integer(self):
        module = parse_module(
            "module m(); reg [7:0] r; integer i; endmodule")
        assert module.items[0].kind == "reg"
        assert module.items[1].kind == "integer"

    def test_localparam(self):
        module = parse_module("module m(); localparam N = 4; endmodule")
        assert module.items[0].local

    def test_signed_declaration(self):
        module = parse_module("module m(); wire signed [7:0] s; endmodule")
        assert module.items[0].signed


class TestExpressions:
    def expr(self, text):
        module = parse_module(f"module m(input a, input b, input c); "
                              f"wire y; assign y = {text}; endmodule")
        assigns = [i for i in module.items if isinstance(i, ast.Assign)]
        return assigns[0].rhs

    def test_precedence_mul_over_add(self):
        expr = self.expr("a + b * c")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_and_over_or(self):
        expr = self.expr("a | b & c")
        assert expr.op == "|"
        assert expr.right.op == "&"

    def test_left_associativity(self):
        expr = self.expr("a - b - c")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_ternary_right_associative(self):
        expr = self.expr("a ? b : c ? a : b")
        assert isinstance(expr, ast.Ternary)
        assert isinstance(expr.false_value, ast.Ternary)

    def test_unary_reduction(self):
        expr = self.expr("&a | ^b")
        assert expr.op == "|"
        assert expr.left.op == "&"
        assert expr.right.op == "^"

    def test_concat(self):
        expr = self.expr("{a, b, 1'b0}")
        assert isinstance(expr, ast.Concat)
        assert len(expr.parts) == 3

    def test_replication(self):
        expr = self.expr("{4{a}}")
        assert isinstance(expr, ast.Repeat)
        assert expr.count.value == 4

    def test_bit_select(self):
        expr = self.expr("a[3]")
        assert isinstance(expr, ast.BitSelect)

    def test_part_select(self):
        expr = self.expr("a[7:4]")
        assert isinstance(expr, ast.PartSelect)
        assert expr.mode == ":"

    def test_indexed_part_select(self):
        expr = self.expr("a[b +: 4]")
        assert expr.mode == "+:"

    def test_nested_selects(self):
        expr = self.expr("a[7:4][1]")
        assert isinstance(expr, ast.BitSelect)
        assert isinstance(expr.base, ast.PartSelect)

    def test_based_const_value(self):
        expr = self.expr("8'hA5")
        assert expr.value == 0xA5
        assert expr.width == 8

    def test_system_function_call(self):
        expr = self.expr("$signed(a)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "$signed"

    def test_le_in_expression_is_comparison(self):
        expr = self.expr("a <= b")
        assert expr.op == "<="


class TestStatements:
    def always(self, body, sens="*"):
        module = parse_module(f"""
module m(input clk, input a, input b, output reg q);
  reg [3:0] t;
  integer i;
  always @({sens}) {body}
endmodule
""")
        return [i for i in module.items if isinstance(i, ast.Always)][0]

    def test_sensitivity_star(self):
        always = self.always("q = a;")
        assert always.sens_list == []
        assert not always.is_clocked

    def test_posedge_sensitivity(self):
        always = self.always("q <= a;", sens="posedge clk")
        assert always.is_clocked
        assert always.sens_list[0].edge == "posedge"

    def test_or_separated_sensitivity(self):
        always = self.always("q <= a;", sens="posedge clk or negedge a")
        assert [s.edge for s in always.sens_list] == ["posedge", "negedge"]

    def test_comma_separated_sensitivity(self):
        always = self.always("q = a;", sens="a, b")
        assert len(always.sens_list) == 2

    def test_if_else(self):
        always = self.always("if (a) q = b; else q = ~b;")
        stmt = always.statement
        assert isinstance(stmt, ast.If)
        assert stmt.else_stmt is not None

    def test_dangling_else_binds_inner(self):
        always = self.always("if (a) if (b) q = 1'b1; else q = 1'b0;")
        outer = always.statement
        assert outer.else_stmt is None
        assert outer.then_stmt.else_stmt is not None

    def test_case_with_default(self):
        always = self.always("""
begin
  case (t)
    4'd0: q = a;
    4'd1, 4'd2: q = b;
    default: q = 1'b0;
  endcase
end
""")
        case = always.statement.statements[0]
        assert isinstance(case, ast.Case)
        assert len(case.items) == 3
        assert case.items[1].patterns and len(case.items[1].patterns) == 2
        assert case.items[2].patterns == []

    def test_casez(self):
        always = self.always("casez (t) 4'b1???: q = a; endcase")
        assert always.statement.kind == "casez"

    def test_for_loop(self):
        always = self.always(
            "begin for (i = 0; i < 4; i = i + 1) q = a; end")
        loop = always.statement.statements[0]
        assert isinstance(loop, ast.For)

    def test_named_block(self):
        always = self.always("begin : blk q = a; end")
        assert always.statement.name == "blk"

    def test_blocking_vs_nonblocking(self):
        blocking = self.always("q = a;").statement
        nonblocking = self.always("q <= a;").statement
        assert isinstance(blocking, ast.BlockingAssign)
        assert isinstance(nonblocking, ast.NonblockingAssign)

    def test_concat_lvalue(self):
        always = self.always("{q, t} = {a, b, 3'b0};")
        assert isinstance(always.statement.lhs, ast.Concat)


class TestInstancesAndGates:
    def test_gate_primitive(self):
        module = parse_module(
            "module m(input a, input b, output y); "
            "xor g1 (y, a, b); endmodule")
        gate = module.items[0]
        assert isinstance(gate, ast.GateInstance)
        assert gate.gate == "xor"
        assert len(gate.args) == 3

    def test_anonymous_gate(self):
        module = parse_module(
            "module m(input a, output y); not (y, a); endmodule")
        assert module.items[0].name.startswith("not_anon")

    def test_multiple_gates_one_statement(self):
        module = parse_module(
            "module m(input a, output x, output y); "
            "not n1 (x, a), n2 (y, a); endmodule")
        gates = [i for i in module.items if isinstance(i, ast.GateInstance)]
        assert len(gates) == 2

    def test_named_connections(self):
        module = parse_module("""
module m(input a, output y);
  sub u1 (.in(a), .out(y));
endmodule
""")
        inst = module.items[0]
        assert isinstance(inst, ast.ModuleInstance)
        assert inst.connections[0].port == "in"

    def test_positional_connections(self):
        module = parse_module(
            "module m(input a, output y); sub u1 (y, a); endmodule")
        assert module.items[0].connections[0].port is None

    def test_parameter_override(self):
        module = parse_module(
            "module m(input a, output y); "
            "sub #(.W(16)) u1 (.in(a), .out(y)); endmodule")
        inst = module.items[0]
        assert inst.param_overrides[0].port == "W"
        assert inst.param_overrides[0].expr.value == 16

    def test_unconnected_port(self):
        module = parse_module(
            "module m(input a); sub u1 (.in(a), .out()); endmodule")
        assert module.items[0].connections[1].expr is None


class TestIdentifierFastPath:
    """Pinned trees around the bare-identifier shortcut: an identifier
    followed by ``,``, ``)`` or ``;`` skips the precedence ladder, and
    every other form next to it still climbs."""

    def items(self, body):
        return parse_module(f"module m(input a, input b, input c, "
                            f"output y); {body} endmodule").items

    def rhs(self, text):
        return self.items(f"assign y = {text};")[0].rhs

    def test_function_call_arguments(self):
        assert self.rhs("f(a, b)") == ast.FunctionCall(
            name="f", args=[ast.Identifier("a"), ast.Identifier("b")])

    def test_bit_select(self):
        assert self.rhs("a[1]") == ast.BitSelect(
            base=ast.Identifier("a"), index=ast.IntConst(1))

    def test_ternary(self):
        assert self.rhs("a ? b : c") == ast.Ternary(
            cond=ast.Identifier("a"), true_value=ast.Identifier("b"),
            false_value=ast.Identifier("c"))

    def test_binary(self):
        assert self.rhs("a + b") == ast.BinaryOp(
            op="+", left=ast.Identifier("a"), right=ast.Identifier("b"))

    def test_parenthesized_and_bare(self):
        assert self.rhs("(a)") == ast.Identifier("a")
        assert self.rhs("a") == ast.Identifier("a")

    def test_gate_arguments(self):
        assert self.items("xor g1 (y, a, b);") == [ast.GateInstance(
            gate="xor", name="g1",
            args=[ast.Identifier("y"), ast.Identifier("a"),
                  ast.Identifier("b")], line=1)]


def _ids(*names):
    return [ast.Identifier(name) for name in names]


#: Statement -> the module items it parses to.  The one-name, no-width
#: declaration and the named gate on names and one-bit constants are
#: taken by the statement scan; every other row is a shape next to them
#: that must keep the general path's tree.
STATEMENT_TREES = [
    ("wire a;", [ast.NetDecl("wire", ["a"], line=1)]),
    ("reg q;", [ast.NetDecl("reg", ["q"], line=1)]),
    ("wire a, b;", [ast.NetDecl("wire", ["a", "b"], line=1)]),
    ("wire [3:0] x;", [ast.NetDecl(
        "wire", ["x"], ast.Width(ast.IntConst(3), ast.IntConst(0)),
        line=1)]),
    ("wire signed s;", [ast.NetDecl("wire", ["s"], signed=True, line=1)]),
    ("wire x = a & b;", [
        ast.NetDecl("wire", ["x"], line=1),
        ast.Assign(ast.Identifier("x"),
                   ast.BinaryOp("&", *_ids("a", "b")), line=1)]),
    ("and g (y, a, b);",
     [ast.GateInstance("and", "g", _ids("y", "a", "b"), line=1)]),
    ("not (y, a);",
     [ast.GateInstance("not", "not_anon0", _ids("y", "a"), line=1)]),
    ("and g1 (y, a, b), g2 (z, c, d);", [
        ast.GateInstance("and", "g1", _ids("y", "a", "b"), line=1),
        ast.GateInstance("and", "g2", _ids("z", "c", "d"), line=1)]),
    ("and g (y, 1'b0, b);", [ast.GateInstance(
        "and", "g", [ast.Identifier("y"), ast.BasedConst(1, "b", "0"),
                     ast.Identifier("b")], line=1)]),
    ("and g (y, a[0], b);", [ast.GateInstance(
        "and", "g", [ast.Identifier("y"),
                     ast.BitSelect(ast.Identifier("a"), ast.IntConst(0)),
                     ast.Identifier("b")], line=1)]),
]


class TestStatementTrees:
    @pytest.mark.parametrize("statement,items", STATEMENT_TREES,
                             ids=[row[0] for row in STATEMENT_TREES])
    def test_statement_parses_to(self, statement, items):
        module = parse_module(f"module m(); {statement} endmodule")
        assert module.items == items

    def test_anonymous_gates_numbered_per_module(self):
        module = parse_module("module m(input a, input b, output y, "
                              "output z); and (y, a, b); and (z, a, b); "
                              "endmodule")
        names = [item.name for item in module.items]
        assert names == ["and_anon0", "and_anon1"]

    def test_anonymous_gate_names_survive_netlist_round_trip(self):
        from repro.netlist import write_netlist
        from repro.synth import synthesize_verilog

        netlist = synthesize_verilog("module m(input a, input b, output y, "
                                     "output z); and (y, a, b); "
                                     "and (z, a, b); endmodule")
        written = parse_module(write_netlist(netlist))
        names = [item.name for item in written.items
                 if isinstance(item, ast.GateInstance)]
        assert len(names) == 2 and len(set(names)) == 2

    def test_anonymous_numbering_restarts_per_module(self):
        source = parse("module a(input i, output o); not (o, i); endmodule "
                       "module b(input i, output o); not (o, i); endmodule")
        assert [m.items[0].name for m in source.modules] == [
            "not_anon0", "not_anon0"]


#: Sources cut short inside a declaration or a gate -> the ParseError
#: message and line the general path reports.  The statement scan leaves
#: a statement it cannot match whole to the general path.
TRUNCATED = [
    ("module m(); wire", "expected 'IDENT', found ''", 1),
    ("module m(); and g (", "unexpected token '' in expression", 1),
    ("module m(); and g (a,", "unexpected token '' in expression", 1),
    ("module m(); and g (a) ", "expected ';', found ''", 1),
    ("module m();\n  wire a\n", "expected ';', found ''", 3),
    ("module m();\n  reg\n", "expected 'IDENT', found ''", 3),
    ("module m();\n  and g (y, a\n  ", "expected ')', found ''", 3),
    ("module m();\n  and g (y, a, b)\n", "expected ';', found ''", 3),
]


class TestTruncatedStatements:
    @pytest.mark.parametrize("text,message,line", TRUNCATED,
                             ids=[row[0] for row in TRUNCATED])
    def test_truncated_source_is_a_parse_error(self, text, message, line):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert str(excinfo.value) == f"{message} at line {line}"
        assert excinfo.value.line == line


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_module("module m(input a) endmodule")

    def test_unterminated_module(self):
        with pytest.raises(ParseError):
            parse_module("module m(input a);")

    def test_unterminated_begin(self):
        with pytest.raises(ParseError):
            parse_module(
                "module m(input a); always @(*) begin endmodule")

    def test_generate_unsupported(self):
        with pytest.raises(ParseError):
            parse_module("module m(); generate endgenerate endmodule")

    def test_error_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_module("module m(input a);\n\nassign = 1;\nendmodule")
        assert excinfo.value.line == 3

    def test_parse_module_rejects_two_modules(self):
        with pytest.raises(ParseError):
            parse_module("module a(); endmodule module b(); endmodule")

    def test_deep_nesting_is_a_parse_error(self):
        # Past the recursion limit of the recursive-descent parser: a
        # typed error naming the depth, not a bare RecursionError.
        nested = "(" * 3000 + "a" + ")" * 3000
        with pytest.raises(ParseError, match="3000 deep") as excinfo:
            parse(f"module m(input a, output y);\n"
                  f"assign y = {nested};\nendmodule")
        assert excinfo.value.line == 2


def _within(seconds, fn, *args):
    """``fn(*args)``, run in a daemon thread so that a call still running
    after ``seconds`` fails the test instead of stalling the run."""
    outcome = []

    def run():
        try:
            outcome.append((True, fn(*args)))
        except Exception as error:  # re-raised in the test's thread
            outcome.append((False, error))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    returned, value = outcome[0]
    if not returned:
        raise value
    return value


class TestGenvar:
    def test_genvar_declaration_is_skipped(self):
        module = parse_module("module m(); genvar i, j; wire a; endmodule")
        assert module.items == [ast.NetDecl("wire", ["a"], line=1)]

    def test_truncated_genvar_is_a_parse_error(self):
        with pytest.raises(ParseError) as excinfo:
            _within(10, parse, "module m; genvar i")
        assert str(excinfo.value) == ("unterminated genvar declaration "
                                      "at line 1")

    def test_genvar_at_end_of_text_is_a_parse_error(self):
        with pytest.raises(ParseError) as excinfo:
            _within(10, parse, "module m;\n  wire a;\n  genvar")
        assert excinfo.value.line == 3


def _outcome(fn, text):
    """``fn(text)``, or the type, message and line of the error it
    raises."""
    try:
        return fn(text)
    except (LexerError, ParseError) as error:
        return type(error), str(error), error.line


def _general(text):
    return Parser(tokenize(text)).parse()


def _assert_scan_matches_general_path(*texts):
    for text in texts:
        assert _outcome(parse, text) == _outcome(_general, text)


_WORD = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                  "0123456789_$")
_SEPARATORS = st.sampled_from(["", " ", "  ", "\n", "\n  ", "\t", " \r\n",
                               "\n\n\t  "])
#: Plain names, then a few keyword and escaped ones (an escaped name
#: ends at its blank).
_NAMES = st.sampled_from(["a", "b", "y", "n1", "w_2", "$x"] * 4
                         + ["and", "wire", "or", "\\esc.x ", "\\a;b "])
_ARGS = st.one_of(_NAMES, st.sampled_from(["1'b0", "1'b1", "1'bx"]))


@st.composite
def _gate(draw):
    tokens = [draw(st.sampled_from(sorted(GATE_PRIMITIVES)))]
    for index in range(draw(st.integers(1, 2))):
        if index:
            tokens.append(",")
        if draw(st.integers(0, 3)):
            tokens.append(draw(_NAMES))
        tokens.append("(")
        for position in range(draw(st.integers(1, 3))):
            if position:
                tokens.append(",")
            tokens.append(draw(_ARGS))
        tokens.append(")")
    return tokens + [";"]


_STATEMENTS = st.one_of(
    st.tuples(st.sampled_from(["wire", "reg"]), _NAMES).map(
        lambda t: [*t, ";"]),
    _gate(),
    st.tuples(_NAMES, _NAMES, _ARGS, _ARGS).map(
        lambda t: ["assign", t[0], "=", t[1], "?", t[2], ":", t[3], ";"]),
    st.tuples(_NAMES, _ARGS).map(lambda t: ["assign", t[0], "=", t[1], ";"]),
    st.tuples(_NAMES, _NAMES, _ARGS).map(
        lambda t: ["assign", t[0], "=", t[1], "&", t[2], ";"]),
    st.tuples(_NAMES, _NAMES, _ARGS, st.booleans()).map(
        lambda t: ["always", "@", "(", "posedge", t[0], ")"]
        + (["begin", t[1], "<=", t[2], ";", "end"] if t[3]
           else [t[1], "<=", t[2], ";"])),
)
#: A genvar without its ``;`` runs on over the statement after it.
_GENVARS = st.tuples(_NAMES, st.sampled_from(["wire", "reg"]), _NAMES).map(
    lambda t: ["genvar", t[0], t[1], t[2], ";"])


def _module(statements):
    return st.lists(statements, max_size=8).map(
        lambda items: ["module", "m", "(", "input", "a", ",", "output", "y",
                       ")", ";"] + [t for item in items for t in item]
        + ["endmodule"])


@st.composite
def _netlist_text(draw, statements=_STATEMENTS):
    """A netlist-shaped source with random blank runs between tokens,
    and the offsets where its tokens end."""
    modules = draw(st.lists(_module(statements), min_size=1, max_size=2))
    tokens = [t for module in modules for t in module]
    text = ""
    ends = []
    for token in tokens:
        separator = draw(_SEPARATORS)
        if not separator and text[-1:] in _WORD and token[0] in _WORD:
            separator = " "  # keep the two tokens apart
        text += separator + token
        ends.append(len(text))
    return text + draw(_SEPARATORS), ends


class TestStatementScan:
    """The statement scan builds the tree, and raises the error, that the
    general rules give for the whole token stream."""

    @settings(max_examples=150, deadline=None)
    @given(_netlist_text(st.one_of(_STATEMENTS, _GENVARS)))
    def test_scan_matches_general_path(self, netlist):
        text, _ = netlist
        _within(10, _assert_scan_matches_general_path, text)

    @settings(max_examples=25, deadline=None)
    @given(_netlist_text())
    def test_truncations_match_general_path(self, netlist):
        text, ends = netlist
        _within(30, _assert_scan_matches_general_path,
                *[text[:end] for end in ends])

    def test_line_numbers_follow_blank_runs(self):
        text = ("module m(input a, output y);\n\n  wire\n n;\r\n"
                "  and g (y,\n a, n);  assign n\n=a?a:1'b1;\nendmodule\n")
        assert parse(text) == _general(text)
        lines = [item.line for item in parse(text).modules[0].items]
        assert lines == [3, 5, 6]

    def test_span_cut_inside_an_item_is_read_again(self):
        # The span before ``wire x;`` ends inside the genvar, which runs
        # on to the next ``;``: the items and the anonymous gate count
        # the span had read are put back before the rest is read again.
        text = ("module m(input a, output y);\n  wire n;\n  and (y, a);\n"
                "  genvar i\n  wire x;\n  and (y, n);\nendmodule\n")
        module = parse_module(text)
        assert parse(text) == _general(text)
        assert [item.name for item in module.items[1:]] == [
            "and_anon0", "and_anon1"]

    def test_comment_across_a_statement_is_skipped(self):
        text = ("module m(input a, output y);\n  and g1 (y, a); // wire x;\n"
                "  always @(posedge a) y <= a; // and g2 (y, a);\n"
                "  /* wire z; */ wire w;\nendmodule")
        assert parse(text) == _general(text)
        assert [item.line for item in parse(text).modules[0].items] == [
            2, 3, 4]


#: Netlist statements, as tokens: the shapes the scan takes, then shapes
#: it leaves to the general rules.
_LONG_BLANK_SHAPES = [
    ["wire", "a", ";"],
    ["reg", "q", ";"],
    ["and", "g", "(", "y", ",", "a", ",", "1'b0", ")", ";"],
    ["assign", "y", "=", "s", "?", "a", ":", "1'b1", ";"],
    ["wire", "[", "3", ":", "0", "]", "x", ";"],
    ["and", "(", "y", ",", "a", ")", ";"],
    ["assign", "y", "=", "a", "&", "b", ";"],
    ["always", "@", "(", "posedge", "c", ")", "q", "<=", "d", ";"],
]


def _slowest_long_blank_parse(shape):
    """Parse ``shape`` with a 200,000-blank run at each of its token
    boundaries in turn; check each outcome against the general path's
    and return the slowest parse time in seconds."""
    slowest = 0.0
    for boundary in range(len(shape) + 1):
        tokens = list(shape)
        tokens.insert(boundary, " \t" * 100_000)
        text = ("module m(input a, output y);\n  wire n;\n  "
                + " ".join(tokens) + "\n  wire z;\nendmodule\n")
        start = time.perf_counter()
        outcome = _outcome(parse, text)
        slowest = max(slowest, time.perf_counter() - start)
        assert outcome == _outcome(_general, text), boundary
    return slowest


class TestLongBlankRuns:
    """A long blank run at any token boundary of a statement is read in
    linear time: finding where the next statement starts must not retry
    the run from each of its blanks."""

    def test_long_blank_runs_parse_in_linear_time(self):
        # In a child process: a search gone quadratic is one regex call
        # that holds the interpreter lock, so only a kill stops it.
        here = Path(__file__).parent
        child = subprocess.run(
            [sys.executable, "-c",
             "import json\n"
             "from test_parser import _LONG_BLANK_SHAPES as shapes\n"
             "from test_parser import _slowest_long_blank_parse as slowest\n"
             "print(json.dumps([slowest(shape) for shape in shapes]))\n"],
            env={"PYTHONPATH": f"{here.parent / 'src'}:{here}",
                 "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        times = dict(zip(map(" ".join, _LONG_BLANK_SHAPES),
                         json.loads(child.stdout)))
        assert max(times.values()) < 1.0, times
