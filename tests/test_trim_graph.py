"""Tests for the RTL graph container and the trim pass."""

from repro.dataflow import analyze, elaborate
from repro.dataflow.trim import collapse_pass_through, prune_unreachable, trim
from repro.ir import KIND_CONST, KIND_OP, KIND_SIGNAL, GraphIR
from repro.ir.frontends import get_frontend
from repro.verilog import parse_source


def signal(graph, name, role):
    return graph.add_node(KIND_SIGNAL, role, name)


def build_sample():
    graph = GraphIR("sample")
    y = signal(graph, "y", "output")
    a = signal(graph, "a", "input")
    op = graph.add_node(KIND_OP, "unot")
    graph.add_edge(y, op)
    graph.add_edge(op, a)
    return graph, y, a, op


class TestDFGContainer:
    def test_add_and_query(self):
        graph, y, a, op = build_sample()
        assert len(graph) == 3
        assert graph.num_edges == 2
        assert graph.successors(y) == [op]
        assert graph.predecessors(a) == [op]

    def test_duplicate_edge_ignored(self):
        graph, y, a, op = build_sample()
        graph.add_edge(y, op)
        assert graph.num_edges == 2

    def test_reachable_from(self):
        graph, y, a, op = build_sample()
        orphan = graph.add_node(KIND_CONST, "const", "1")
        reach = graph.reachable_from([y])
        assert reach == {y, a, op}
        assert orphan not in reach

    def test_subgraph_remaps_edges(self):
        graph, y, a, op = build_sample()
        graph.add_node(KIND_CONST, "const", "0")  # to be dropped
        sub = graph.subgraph([y, a, op])
        assert len(sub) == 3
        assert sub.num_edges == 2

    def test_adjacency_symmetric(self):
        graph, *_ = build_sample()
        adjacency = graph.adjacency(symmetric=True)
        assert (adjacency != adjacency.T).nnz == 0

    def test_adjacency_directed(self):
        graph, y, a, op = build_sample()
        adjacency = graph.adjacency(symmetric=False)
        assert adjacency[y, op] == 1
        assert adjacency[op, y] == 0

    def test_label_counts(self):
        graph, *_ = build_sample()
        counts = graph.label_counts()
        assert counts == {"output": 1, "input": 1, "unot": 1}


class TestTrim:
    def test_prune_removes_disconnected(self):
        graph, y, a, op = build_sample()
        graph.add_node(KIND_OP, "and")  # disconnected
        trimmed = prune_unreachable(graph)
        assert len(trimmed) == 3

    def test_prune_keeps_everything_without_outputs(self):
        graph = GraphIR()
        x = signal(graph, "x", "wire")
        c = graph.add_node(KIND_CONST, "const", "1")
        graph.add_edge(x, c)
        trimmed = prune_unreachable(graph)
        assert len(trimmed) == 2

    def test_collapse_buffer(self):
        graph = GraphIR()
        y = signal(graph, "y", "output")
        a = signal(graph, "a", "input")
        buf = graph.add_node(KIND_OP, "buf")
        graph.add_edge(y, buf)
        graph.add_edge(buf, a)
        collapsed = collapse_pass_through(graph)
        assert collapsed.labels() == ["output", "input"]
        assert collapsed.successors(0) == [1]

    def test_collapse_buffer_chain(self):
        graph = GraphIR()
        y = signal(graph, "y", "output")
        a = signal(graph, "a", "input")
        b1 = graph.add_node(KIND_OP, "buf")
        b2 = graph.add_node(KIND_OP, "buf")
        graph.add_edge(y, b1)
        graph.add_edge(b1, b2)
        graph.add_edge(b2, a)
        collapsed = collapse_pass_through(graph)
        assert len(collapsed) == 2

    def test_single_operand_concat_collapsed(self):
        graph = GraphIR()
        y = signal(graph, "y", "output")
        a = signal(graph, "a", "input")
        concat = graph.add_node(KIND_OP, "concat")
        graph.add_edge(y, concat)
        graph.add_edge(concat, a)
        assert len(collapse_pass_through(graph)) == 2

    def test_multi_operand_concat_kept(self):
        graph = GraphIR()
        y = signal(graph, "y", "output")
        a = signal(graph, "a", "input")
        b = signal(graph, "b", "input")
        concat = graph.add_node(KIND_OP, "concat")
        graph.add_edge(y, concat)
        graph.add_edge(concat, a)
        graph.add_edge(concat, b)
        assert len(collapse_pass_through(graph)) == 4

    def test_trim_on_real_design(self):
        text = """
module m(input a, input b, output y);
  wire unused;
  assign unused = a ^ b;
  assign y = a & b;
endmodule
"""
        untrimmed = analyze(elaborate(parse_source(text)))
        trimmed = get_frontend("rtl").extract(text)
        assert len(trimmed) < len(untrimmed)
        names = {n.name for n in trimmed.nodes if n.kind == KIND_SIGNAL}
        assert "unused" not in names

    def test_trim_idempotent(self):
        text = """
module m(input a, input b, output y);
  wire t;
  buf (t, a);
  and (y, t, b);
endmodule
"""
        once = get_frontend("rtl").extract(text)
        twice = trim(once)
        assert len(once) == len(twice)
        assert once.num_edges == twice.num_edges
