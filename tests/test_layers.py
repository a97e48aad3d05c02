"""Tests for nn layers: Module, Parameter, GCNConv, Dropout, normalization."""

import numpy as np
import pytest
from scipy import sparse

from repro.core import HW2VEC
from repro.ir import GraphIR
from repro.ir.frontends import get_frontend
from repro.nn.batch import batched_backward, batched_forward, pack_prepared
from repro.nn.layers import (
    Dropout,
    GCNConv,
    Module,
    glorot,
    normalize_edges,
)

extract_rtl = get_frontend("rtl").extract

RNG = np.random.default_rng(7)


def normalize_adjacency(adjacency, add_self_loops=True):
    """:func:`normalize_edges` of a binary scipy adjacency."""
    coo = adjacency.tocoo()
    return normalize_edges(coo.row, coo.col, coo.shape[0],
                           add_self_loops=add_self_loops)


def chain_adjacency(n):
    rows = list(range(n - 1))
    cols = list(range(1, n))
    data = np.ones(n - 1)
    matrix = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    return matrix.maximum(matrix.T)


class TestModuleInfrastructure:
    def test_parameters_collected_recursively(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.layer_a = self.register_module("a", GCNConv(2, 3))
                self.layer_b = self.register_module("b", GCNConv(3, 1))

        net = Net()
        assert len(net.parameters()) == 4  # two weights, two biases

    def test_named_parameters_have_prefixes(self):
        conv = GCNConv(4, 2)
        names = [name for name, _ in conv.named_parameters()]
        assert "weight" in names
        assert "bias" in names

    def test_state_dict_roundtrip(self):
        layer = GCNConv(3, 2, rng=RNG)
        state = layer.state_dict()
        clone = GCNConv(3, 2, rng=np.random.default_rng(99))
        clone.load_state_dict(state)
        np.testing.assert_array_equal(layer.weight.data, clone.weight.data)

    def test_load_state_dict_shape_mismatch(self):
        layer = GCNConv(3, 2)
        bad = {name: np.zeros((1, 1)) for name, _ in layer.named_parameters()}
        with pytest.raises(ValueError):
            layer.load_state_dict(bad)

    def test_load_state_dict_missing_key(self):
        layer = GCNConv(3, 2)
        with pytest.raises(KeyError):
            layer.load_state_dict({})

    def test_zero_grad(self):
        encoder, batch = encoder_and_batch(ring(4))
        ctx = {}
        out = batched_forward(encoder, batch, ctx=ctx)
        batched_backward(encoder, batch, None, ctx, np.ones_like(out))
        assert all(p.grad is not None for p in encoder.parameters())
        encoder.zero_grad()
        assert all(p.grad is None for p in encoder.parameters())


class TestNormalizeAdjacency:
    def test_self_loops_added(self):
        adjacency = chain_adjacency(3)
        normalized = normalize_adjacency(adjacency)
        assert np.all(normalized.diagonal() > 0)

    def test_rows_of_isolated_node(self):
        matrix = sparse.csr_matrix((3, 3))
        normalized = normalize_adjacency(matrix)
        # With self loops each isolated node normalizes to exactly 1.
        np.testing.assert_allclose(normalized.diagonal(), 1.0)

    def test_symmetric_output(self):
        normalized = normalize_adjacency(chain_adjacency(5))
        dense = normalized.toarray()
        np.testing.assert_allclose(dense, dense.T)

    def test_matches_formula(self):
        adjacency = chain_adjacency(4)
        a_hat = adjacency.toarray() + np.eye(4)
        degree = a_hat.sum(axis=1)
        expected = a_hat / np.sqrt(np.outer(degree, degree))
        np.testing.assert_allclose(
            normalize_adjacency(adjacency).toarray(), expected)

    def test_no_self_loops_option(self):
        normalized = normalize_adjacency(chain_adjacency(3),
                                         add_self_loops=False)
        assert normalized.diagonal().sum() == 0


def ring(n, edges=True):
    graph = GraphIR(f"ring{n}")
    for _ in range(n):
        graph.add_node("signal", "wire")
    if edges:
        for i in range(n):
            graph.add_edge(i, (i + 1) % n)
    return graph


def encoder_and_batch(*graphs):
    encoder = HW2VEC(seed=2, num_layers=1)
    return encoder, pack_prepared([encoder.prepare(g) for g in graphs])


def first_layer(encoder, batch, features=None):
    """``(A X, relu(A X W + b))`` of the first GCN layer of the forward."""
    if features is not None:
        batch.features = features
    ctx = {}
    batched_forward(encoder, batch, ctx=ctx)
    return ctx["layers"][0]


class TestGCNConv:
    def test_forward_shape(self):
        encoder, batch = encoder_and_batch(ring(5), ring(3))
        ax, out = first_layer(encoder, batch)
        assert ax.shape == batch.features.shape
        assert out.shape == (8, encoder.hidden)

    def test_propagation_mixes_neighbors(self):
        """A node's output must depend on its neighbor's features."""
        encoder, batch = encoder_and_batch(ring(3))
        x0 = batch.features.copy()
        x1 = x0.copy()
        x1[1] = RNG.normal(size=x1.shape[1])
        ax0, _ = first_layer(encoder, batch, x0)
        ax1, _ = first_layer(encoder, batch, x1)
        assert not np.allclose(ax0[0], ax1[0])

    def test_isolated_graph_is_dense_linear(self):
        """With no edges, GCN reduces to a plain linear layer."""
        encoder, batch = encoder_and_batch(ring(4, edges=False))
        conv = encoder.convs[0]
        x = RNG.normal(size=batch.features.shape)
        ax, out = first_layer(encoder, batch, x)
        np.testing.assert_array_equal(ax, x)
        np.testing.assert_allclose(
            out, np.maximum(x @ conv.weight.data + conv.bias.data, 0.0))

    def test_gradient_reaches_weight(self):
        encoder, batch = encoder_and_batch(ring(4))
        ctx = {}
        out = batched_forward(encoder, batch, ctx=ctx)
        batched_backward(encoder, batch, None, ctx, 2 * out)
        assert encoder.convs[0].weight.grad is not None
        assert np.linalg.norm(encoder.convs[0].weight.grad) > 0

    def test_no_bias(self):
        conv = GCNConv(4, 3, bias=False)
        assert conv.bias is None
        assert len(conv.parameters()) == 1

    def test_glorot_bounds(self):
        weights = glorot((100, 50), RNG)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(weights) <= limit)


class TestDropout:
    def test_eval_mode_is_identity(self):
        """Inference passes no masks: dropout is the identity there."""
        encoder = HW2VEC(seed=0, dropout=0.5)
        graph = extract_rtl(
            "module m(input a, input b, output y); assign y = a & b; "
            "endmodule")
        batch = pack_prepared([encoder.prepare(graph)] * 2)
        ones = np.ones((len(encoder.convs), batch.features.shape[0],
                        encoder.hidden))
        np.testing.assert_array_equal(batched_forward(encoder, batch),
                                      batched_forward(encoder, batch, ones))

    def test_train_mode_zeroes_and_scales(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        masks = drop.masks([40, 60], 100, 2)
        assert masks.shape == (2, 100, 100)
        assert set(np.unique(masks)) <= {0.0, 2.0}
        # roughly half survive
        assert 0.35 < (masks > 0).mean() < 0.65

    def test_masks_follow_per_graph_stream(self):
        """One draw, consumed graph-major then layer-minor."""
        drop = Dropout(0.25, rng=np.random.default_rng(5))
        masks = drop.masks([3, 1, 4], 5, 2)
        rng = np.random.default_rng(5)
        expected = [[], []]
        for size in (3, 1, 4):
            for layer in range(2):
                expected[layer].append(rng.random((size, 5)) < 0.75)
        for layer in range(2):
            np.testing.assert_array_equal(
                masks[layer], np.vstack(expected[layer]) / 0.75)

    def test_zero_rate_identity(self):
        assert Dropout(0.0).masks([5], 5, 2) is None
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)
