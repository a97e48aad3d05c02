"""The vectorized adjacency builder against the scipy formula it replaced.

The reference below is the per-graph normalization the packing path used
to run -- ``diags(inv) @ (A + I) @ diags(inv)`` per graph, then
``block_diag`` -- kept here, inline, as the oracle.  The array routine
must reproduce it bit for bit (indptr, indices and data), and so must
every embedding computed from it.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core import HW2VEC
from repro.designs.corpus import canonical_variant
from repro.errors import GraphIRError
from repro.index.chunks import extract_chunks
from repro.ir import GraphIR, to_graphir
from repro.ir.frontends import get_frontend
from repro.nn import (
    GraphBatch,
    batched_forward,
    normalize_edges,
    pack_prepared,
)
from repro.synth.synthesize import synthesize_verilog

EMPTY = "module m(); endmodule"


def reference_normalize(adjacency, add_self_loops=True):
    matrix = adjacency.tocsr().astype(np.float64)
    if add_self_loops:
        matrix = matrix + sparse.identity(matrix.shape[0], format="csr")
    degree = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    scaling = sparse.diags(inv_sqrt)
    return (scaling @ matrix @ scaling).tocsr()


def reference_block(graphs):
    return sparse.block_diag(
        [reference_normalize(to_graphir(g).adjacency(symmetric=True))
         for g in graphs], format="csr")


def assert_csr_equal(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.indptr, expected.indptr)
    np.testing.assert_array_equal(actual.indices, expected.indices)
    np.testing.assert_array_equal(actual.data, expected.data)


def wires(count, edges=(), name="g"):
    graph = GraphIR(name)
    for _ in range(count):
        graph.add_node("signal", "wire")
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


def shaped_graphs():
    return {
        "edgeless": wires(4),
        "single": wires(1),
        "single_self_loop": wires(1, [(0, 0)]),
        "isolated": wires(6, [(0, 1), (1, 2)]),
        "self_loops": wires(4, [(0, 0), (0, 1), (2, 2), (3, 2)]),
        "duplicate": wires(3, [(0, 1), (0, 1), (1, 2), (1, 2)]),
        "reciprocal": wires(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 3)]),
        "star": wires(7, [(0, k) for k in range(1, 7)]),
    }


@pytest.fixture(scope="module")
def netlist_parts():
    """Real suspect parts: whole netlists plus their subgraph chunks."""
    parts = []
    for offset, family in enumerate(("adder8", "cmp8", "lfsr8")):
        variant = canonical_variant(family, offset=offset)
        graph = to_graphir(synthesize_verilog(variant.verilog,
                                              top=variant.top))
        parts.append(graph)
        parts.extend(graph.subgraph(members.tolist())
                     for members, _ in extract_chunks(graph))
    assert len(parts) > 6
    return parts


class TestPackMatchesReference:
    @pytest.mark.parametrize("name", sorted(shaped_graphs()))
    def test_single_graph(self, name):
        graph = shaped_graphs()[name]
        batch = pack_prepared([HW2VEC(seed=0).prepare(graph)])
        assert_csr_equal(batch.a_norm, reference_block([graph]))

    def test_mixed_shapes_in_one_batch(self):
        graphs = list(shaped_graphs().values())
        encoder = HW2VEC(seed=2)
        batch = pack_prepared([encoder.prepare(g) for g in graphs])
        expected = reference_block(graphs)
        assert_csr_equal(batch.a_norm, expected)
        reference = GraphBatch(batch.features, expected, batch.sizes)
        assert np.array_equal(batched_forward(encoder, batch),
                              batched_forward(encoder, reference))

    def test_netlist_suspect_parts(self, netlist_parts):
        encoder = HW2VEC(seed=1, featurizer="netlist")
        batch = pack_prepared([encoder.prepare(g) for g in netlist_parts])
        expected = reference_block(netlist_parts)
        assert_csr_equal(batch.a_norm, expected)
        reference = GraphBatch(batch.features, expected, batch.sizes)
        assert np.array_equal(batched_forward(encoder, batch),
                              batched_forward(encoder, reference))

    def test_per_graph_forward_uses_same_matrix(self, netlist_parts):
        encoder = HW2VEC(seed=1, featurizer="netlist")
        for graph in netlist_parts[:4]:
            one = pack_prepared([encoder.prepare(graph)])
            assert_csr_equal(one.a_norm, reference_block([graph]))
            assert np.array_equal(encoder.embed(graph),
                                  batched_forward(encoder, one)[0])


def chain(n):
    matrix = sparse.csr_matrix((np.ones(n - 1), (range(n - 1), range(1, n))),
                               shape=(n, n))
    return matrix.maximum(matrix.T)


class TestNormalizeAdjacency:
    @pytest.mark.parametrize("matrix", [
        chain(2), chain(3), chain(4), chain(5),
        sparse.csr_matrix((3, 3)), sparse.csr_matrix((4, 4)),
        sparse.csr_matrix(np.array([[1.0, 1.0, 0.0],
                                    [1.0, 0.0, 0.0],
                                    [0.0, 0.0, 1.0]])),
    ], ids=["chain2", "chain3", "chain4", "chain5", "empty3", "empty4",
            "self_loops"])
    @pytest.mark.parametrize("loops", [True, False])
    def test_matches_old_function(self, matrix, loops):
        coo = matrix.tocoo()
        assert_csr_equal(normalize_edges(coo.row, coo.col, coo.shape[0],
                                         add_self_loops=loops),
                         reference_normalize(matrix, add_self_loops=loops))

    def test_existing_self_loop_counts_twice(self):
        a_norm = normalize_edges([0, 0, 1], [0, 1, 0], 2)
        # A + I = [[2, 1], [1, 1]]: degrees 3 and 2.
        inv_sqrt = 1.0 / np.sqrt([3.0, 2.0])
        expected = (inv_sqrt[:, None] * np.array([[2.0, 1.0], [1.0, 1.0]])
                    * inv_sqrt[None, :])
        np.testing.assert_array_equal(a_norm.toarray(), expected)


class TestEmptyGraphs:
    @pytest.mark.parametrize("level", ["rtl", "netlist"])
    def test_frontends_refuse_empty_design(self, level):
        with pytest.raises(GraphIRError, match="empty"):
            get_frontend(level).extract(EMPTY)

    def test_prepare_refuses_zero_nodes(self):
        with pytest.raises(GraphIRError, match="no nodes"):
            HW2VEC(seed=0).prepare(GraphIR("hollow"))
