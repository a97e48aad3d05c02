"""Training: the hand-derived backward, determinism, seeded trajectory."""

import numpy as np
import pytest

from repro.core import GNN4IP, GraphRecord, Trainer, build_pair_dataset
from repro.designs import rtl_records
from repro.ir.frontends import get_frontend
from repro.nn.batch import (
    batched_backward,
    batched_forward,
    batched_pair_loss,
    pack_prepared,
)

extract_rtl = get_frontend("rtl").extract

XOR = """
module x(input a, input b, output y);
  assign y = a ^ b;
endmodule
"""

AND = """
module g(input a, input b, output y);
  assign y = a & b;
endmodule
"""

COUNTER = """
module c(input clk, output reg [3:0] q);
  always @(posedge clk) q <= q + 4'd1;
endmodule
"""


@pytest.fixture(scope="module")
def dataset():
    records = [
        GraphRecord("xor", "x0", extract_rtl(XOR)),
        GraphRecord("xor", "x1", extract_rtl(XOR.replace("a ^ b",
                                                              "b ^ a"))),
        GraphRecord("and", "a0", extract_rtl(AND)),
        GraphRecord("and", "a1", extract_rtl(AND.replace("a & b",
                                                              "b & a"))),
        GraphRecord("cnt", "c0", extract_rtl(COUNTER)),
    ]
    return build_pair_dataset(records, test_fraction=0.2, seed=1)


def numeric_grad(function, x, eps=1e-6):
    """Central-difference gradient of scalar ``function`` at array ``x``."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = function(x)
        flat[i] = orig - eps
        minus = function(x)
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestGradientEquivalence:
    @pytest.mark.parametrize("masked", [False, True],
                             ids=["no_dropout", "fixed_masks"])
    @pytest.mark.parametrize("readout", ["max", "mean", "sum"])
    def test_backward_matches_finite_differences(self, dataset, readout,
                                                 masked):
        """``batched_backward`` is the gradient of ``sum(weights * out)``."""
        rng = np.random.default_rng(4)
        encoder = GNN4IP(seed=0, readout=readout, dropout=0.5).encoder
        for param in encoder.parameters():
            param.data = rng.normal(size=param.data.shape)
        batch = pack_prepared([encoder.prepare(r.graph)
                               for r in dataset.records])
        masks = (encoder.dropout.masks(batch.sizes, encoder.hidden,
                                       len(encoder.convs))
                 if masked else None)
        weights = rng.normal(size=(len(batch), encoder.hidden))

        def objective(_):
            return float((batched_forward(encoder, batch, masks)
                          * weights).sum())

        ctx = {}
        batched_forward(encoder, batch, masks, ctx)
        encoder.zero_grad()
        batched_backward(encoder, batch, masks, ctx, weights)
        for name, param in encoder.named_parameters():
            numeric = numeric_grad(objective, param.data)
            np.testing.assert_allclose(param.grad, numeric, rtol=1e-5,
                                       atol=1e-6, err_msg=name)

    def test_backward_accumulates(self, dataset):
        encoder = GNN4IP(seed=0).encoder
        batch = pack_prepared([encoder.prepare(r.graph)
                               for r in dataset.records])
        ctx = {}
        batched_forward(encoder, batch, ctx=ctx)
        d_out = np.ones((len(batch), encoder.hidden))
        batched_backward(encoder, batch, None, ctx, d_out)
        once = {name: p.grad.copy() for name, p in encoder.named_parameters()}
        batched_backward(encoder, batch, None, ctx, d_out)
        for name, param in encoder.named_parameters():
            np.testing.assert_allclose(param.grad, 2 * once[name])

    def test_vectorized_pair_loss_matches_scalar(self, dataset):
        """Loss and cosines equal a per-pair loop over Eq. 6 and Eq. 7."""
        model = GNN4IP(seed=0, dropout=0.0)
        prepared = [model.encoder.prepare(r.graph) for r in dataset.records]
        embeddings = batched_forward(model.encoder, pack_prepared(prepared))
        pairs = [(0, 1, 1), (0, 2, -1), (3, 4, -1), (2, 3, 1)]
        vec_loss, sims, _ = batched_pair_loss(embeddings, pairs, margin=0.5,
                                              positive_weight=3.0)
        total = 0.0
        for (i, j, label), sim in zip(pairs, sims):
            a, b = embeddings[i], embeddings[j]
            cosine = a @ b / (np.sqrt(a @ a + 1e-12) * np.sqrt(b @ b + 1e-12))
            assert sim == pytest.approx(cosine, abs=1e-12)
            total += (3.0 * (1.0 - cosine) if label == 1
                      else max(0.0, cosine - 0.5))
        assert vec_loss == pytest.approx(total / len(pairs), abs=1e-12)

    @pytest.mark.parametrize("weight", [1.0, 3.0])
    def test_pair_loss_gradient_matches_finite_differences(self, weight):
        """The closed-form gradient is the loss's derivative, for repeated
        pairs, self pairs, and active and inactive hinges alike."""
        rng = np.random.default_rng(9)
        embeddings = rng.normal(size=(6, 5))
        embeddings[4] = embeddings[0] + 0.1 * rng.normal(size=5)
        pairs = [(0, 1, 1), (0, 1, 1), (2, 2, 1), (0, 4, -1), (4, 0, -1),
                 (1, 3, -1), (3, 5, 1), (5, 2, -1), (2, 5, -1)]
        _, sims, grad = batched_pair_loss(embeddings, pairs,
                                          positive_weight=weight)
        hinges = [s - 0.5 for s, (_, _, label) in zip(sims, pairs)
                  if label == -1]
        assert min(hinges) < -1e-3 and max(hinges) > 1e-3

        def objective(x):
            return batched_pair_loss(x, pairs, positive_weight=weight)[0]

        np.testing.assert_allclose(grad, numeric_grad(objective, embeddings),
                                   rtol=1e-6, atol=1e-8)

    def test_batched_pair_loss_rejects_empty(self):
        with pytest.raises(ValueError):
            batched_pair_loss(np.ones((2, 4)), [])


class TestDeterminism:
    def _fit_weights(self, dataset, seed, epochs=4):
        model = GNN4IP(seed=seed)
        trainer = Trainer(model, seed=seed)
        trainer.fit(dataset, epochs=epochs, tune_delta=False)
        return model.encoder.state_dict()

    def test_same_seed_identical_weights(self, dataset):
        first = self._fit_weights(dataset, seed=0)
        second = self._fit_weights(dataset, seed=0)
        assert set(first) == set(second)
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])

    def test_different_seed_differs(self, dataset):
        first = self._fit_weights(dataset, seed=0)
        second = self._fit_weights(dataset, seed=7)
        assert any(not np.array_equal(first[name], second[name])
                   for name in first)


#: Epoch losses of three seeded epochs on ``small_corpus`` under the
#: per-graph autograd forward this trainer replaced; the one forward and
#: its hand-derived backward must stay on that trajectory.
TRAJECTORY = {
    0.0: [0.12393534125930501, 0.08667338905269403, 0.0784326040209903],
    0.1: [0.4644260124971168, 0.6691847125648771, 0.7006579507213766],
}


@pytest.fixture(scope="module")
def small_corpus():
    records = rtl_records(families=["adder8", "cmp8", "lfsr8", "mux8"],
                          instances_per_design=3, seed=0)
    return build_pair_dataset(records, seed=0)


class TestBatchedTrainer:
    @pytest.mark.parametrize("dropout", sorted(TRAJECTORY))
    def test_seeded_trajectory(self, small_corpus, dropout):
        """Dropout-free and dropout runs keep the seeded trajectory: the
        masks consume the RNG stream graph by graph, as before."""
        trainer = Trainer(GNN4IP(seed=0, dropout=dropout), seed=0)
        losses = [trainer.train_epoch(small_corpus, epoch)[0]
                  for epoch in range(3)]
        np.testing.assert_allclose(losses, TRAJECTORY[dropout], rtol=1e-12,
                                   atol=1e-12)

    def test_reused_trainer_prepares_new_dataset(self, dataset):
        """A second dataset of the same size is scored on its own graphs."""
        other = build_pair_dataset(
            [GraphRecord("and", f"a{k}", extract_rtl(AND))
             for k in range(2)]
            + [GraphRecord("cnt", f"c{k}", extract_rtl(COUNTER))
               for k in range(3)], test_fraction=0.2, seed=1)
        assert len(other.records) == len(dataset.records)
        model = GNN4IP(seed=0)
        reused = Trainer(model, seed=0)
        reused.evaluate_pairs(dataset, dataset.train_pairs)
        sims, _, _ = reused.evaluate_pairs(other, other.train_pairs)
        fresh, _, _ = Trainer(model, seed=0).evaluate_pairs(
            other, other.train_pairs)
        assert sims == fresh

    def test_loss_decreases(self, dataset):
        trainer = Trainer(GNN4IP(seed=0, dropout=0.0), lr=0.01, seed=0)
        losses = [trainer.train_epoch(dataset, epoch)[0]
                  for epoch in range(15)]
        assert min(losses[5:]) <= losses[0] + 1e-9

    def test_evaluate_pairs_empty(self, dataset):
        trainer = Trainer(GNN4IP(seed=0), seed=0)
        sims, labels, seconds = trainer.evaluate_pairs(dataset, [])
        assert sims == [] and labels == []
        assert seconds >= 0.0

    def test_evaluate_pairs_matches_direct_similarity(self, dataset):
        model = GNN4IP(seed=0)
        trainer = Trainer(model, seed=0)
        sims, labels, _ = trainer.evaluate_pairs(dataset,
                                                 dataset.test_pairs)
        for (i, j, _), sim in zip(dataset.test_pairs, sims):
            direct = model.similarity(dataset.records[i].graph,
                                      dataset.records[j].graph)
            assert sim == pytest.approx(direct, abs=1e-9)
