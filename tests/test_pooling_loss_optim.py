"""Tests for SAGPool, readout, cosine-embedding loss, and optimizers."""

import numpy as np
import pytest

from repro.core import HW2VEC
from repro.ir import GraphIR
from repro.nn.batch import (
    GraphBatch,
    batched_backward,
    batched_forward,
    batched_pair_loss,
    pack_prepared,
    segment_readout,
    segment_topk,
)
from repro.nn.layers import Parameter
from repro.nn.optim import SGD, Adam
from repro.nn.pooling import Readout, SAGPool

RNG = np.random.default_rng(11)


def ring(n):
    graph = GraphIR(f"ring{n}")
    for _ in range(n):
        graph.add_node("signal", "wire")
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


def sized_batch(sizes):
    """A batch with these graph sizes (top-k reads only the segments)."""
    return GraphBatch(np.zeros((sum(sizes), 1)), None, sizes)


def kept_per_graph(kept, batch):
    return [kept[(kept >= lo) & (kept < hi)] - lo
            for lo, hi in zip(batch.offsets[:-1], batch.offsets[1:])]


class TestSAGPool:
    SIZES = [8, 5, 1, 6, 2]

    def test_keeps_ceil_ratio_nodes(self):
        batch = sized_batch(self.SIZES)
        kept, counts = segment_topk(RNG.normal(size=sum(self.SIZES)), batch,
                                    0.5)
        np.testing.assert_array_equal(counts, [4, 3, 1, 3, 1])
        assert [len(k) for k in kept_per_graph(kept, batch)] == [4, 3, 1, 3, 1]
        assert np.all(np.diff(kept) > 0)

    def test_odd_count_rounds_up(self):
        batch = sized_batch([5, 7])
        _, counts = segment_topk(RNG.normal(size=12), batch, 0.5)
        np.testing.assert_array_equal(counts, [3, 4])

    def test_at_least_one_node_kept(self):
        batch = sized_batch([1, 3, 1])
        kept, counts = segment_topk(RNG.normal(size=5), batch, 0.1)
        np.testing.assert_array_equal(counts, [1, 1, 1])
        assert [len(k) for k in kept_per_graph(kept, batch)] == [1, 1, 1]

    def test_ratio_one_keeps_all(self):
        batch = sized_batch(self.SIZES)
        kept, _ = segment_topk(RNG.normal(size=sum(self.SIZES)), batch, 1.0)
        np.testing.assert_array_equal(kept, np.arange(sum(self.SIZES)))

    def test_ties_keep_node_order(self):
        batch = sized_batch([4, 5])
        scores = np.array([1.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        kept, _ = segment_topk(scores, batch, 0.5)
        np.testing.assert_array_equal(kept, [1, 2, 4, 5, 6])

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            SAGPool(4, ratio=0.0)
        with pytest.raises(ValueError):
            SAGPool(4, ratio=1.5)

    def test_gradient_flows_through_gate(self):
        encoder = HW2VEC(seed=3)
        batch = pack_prepared([encoder.prepare(ring(n)) for n in (6, 3, 9)])
        ctx = {}
        out = batched_forward(encoder, batch, ctx=ctx)
        batched_backward(encoder, batch, None, ctx, 2 * out)
        for param in encoder.parameters():
            assert param.grad is not None
        assert np.linalg.norm(encoder.pool.score_layer.weight.grad) > 0

    def test_selection_follows_scores(self):
        """Nodes with the largest attention scores must be the kept ones."""
        batch = sized_batch(self.SIZES)
        scores = RNG.normal(size=sum(self.SIZES))
        kept, counts = segment_topk(scores, batch, 0.5)
        for index, local in enumerate(kept_per_graph(kept, batch)):
            seg = scores[batch.offsets[index]:batch.offsets[index + 1]]
            expected = np.sort(np.argsort(-seg, kind="stable")[:counts[index]])
            np.testing.assert_array_equal(local, expected)


class TestReadout:
    ROWS = np.array([[1.0, 5.0], [3.0, 1.0], [0.0, 7.0]])
    COUNTS = np.array([2, 1])

    def test_max(self):
        np.testing.assert_array_equal(
            segment_readout(self.ROWS, self.COUNTS, "max"),
            [[3.0, 5.0], [0.0, 7.0]])

    def test_mean(self):
        np.testing.assert_array_equal(
            segment_readout(self.ROWS, self.COUNTS, "mean"),
            [[2.0, 3.0], [0.0, 7.0]])

    def test_sum(self):
        np.testing.assert_array_equal(
            segment_readout(self.ROWS, self.COUNTS, "sum"),
            [[4.0, 6.0], [0.0, 7.0]])

    @pytest.mark.parametrize("mode", ["max", "mean", "sum"])
    def test_matches_per_segment_loop(self, mode):
        counts = np.array([3, 1, 7, 2])
        rows = RNG.normal(size=(counts.sum(), 5))
        ends = np.cumsum(counts)
        expected = [getattr(rows[end - count:end], mode)(axis=0)
                    for count, end in zip(counts, ends)]
        np.testing.assert_allclose(segment_readout(rows, counts, mode),
                                   expected, rtol=1e-12, atol=0)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            Readout("median")

    def test_functional_form(self):
        np.testing.assert_array_equal(
            segment_readout(np.array([[1.0], [2.0]]), np.array([2]), "sum"),
            [[3.0]])


def pair_loss(a, b, label, margin=0.5):
    """Eq. 7 loss and cosine of one pair of 1-D embeddings."""
    loss, sims, _ = batched_pair_loss(np.array([a, b], dtype=np.float64),
                                      [(0, 1, label)], margin)
    return loss, sims[0]


class TestCosineEmbeddingLoss:
    def test_similar_pair_loss_is_one_minus_sim(self):
        loss, sim = pair_loss([1.0, 0.0], [0.0, 1.0], 1)
        assert loss == pytest.approx(1.0 - sim)

    def test_identical_similar_pair_zero_loss(self):
        loss, _ = pair_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 1)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_dissimilar_below_margin_zero_loss(self):
        loss, _ = pair_loss([1.0, 0.0], [-1.0, 0.0], -1, margin=0.5)
        assert loss == 0.0

    def test_dissimilar_above_margin_penalized(self):
        loss, sim = pair_loss([1.0, 0.1], [1.0, 0.0], -1, margin=0.5)
        assert loss == pytest.approx(sim - 0.5)

    def test_margin_is_paper_default(self):
        import inspect
        signature = inspect.signature(batched_pair_loss)
        assert signature.parameters["margin"].default == 0.5

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            pair_loss([1.0, 1.0], [1.0, 1.0], 0)

    def test_pairwise_mean(self):
        embeddings = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        loss, sims, _ = batched_pair_loss(embeddings, [(0, 1, 1), (0, 2, -1)])
        assert len(sims) == 2
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_pairwise_empty_rejected(self):
        with pytest.raises(ValueError):
            batched_pair_loss(np.ones((2, 2)), [])

    def test_loss_pulls_similar_pairs_together(self):
        """A few Adam steps down the loss gradient must increase pair
        similarity."""
        rng = np.random.default_rng(3)
        embeddings = Parameter(rng.normal(size=(2, 4)))
        optimizer = Adam([embeddings], lr=0.05)
        history = []
        for _ in range(30):
            optimizer.zero_grad()
            _, sims, embeddings.grad = batched_pair_loss(embeddings.data,
                                                         [(0, 1, 1)])
            history.append(sims[0])
            optimizer.step()
        assert history[-1] > history[0]


class TestOptimizers:
    def quadratic_step(self, optimizer_cls, **kwargs):
        x = Parameter(np.array([5.0]))
        optimizer = optimizer_cls([x], **kwargs)
        for _ in range(200):
            optimizer.zero_grad()
            x.grad = 2 * x.data  # d(x^2)/dx
            optimizer.step()
        return abs(x.data[0])

    def test_sgd_converges(self):
        assert self.quadratic_step(SGD, lr=0.1) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self.quadratic_step(SGD, lr=0.05, momentum=0.9) < 1e-3

    def test_adam_converges(self):
        assert self.quadratic_step(Adam, lr=0.3) < 1e-3

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)

    def test_step_skips_missing_grad(self):
        x = Parameter(np.array([1.0]))
        optimizer = Adam([x], lr=0.1)
        optimizer.step()  # no backward yet: must not crash or move x
        np.testing.assert_array_equal(x.data, [1.0])
