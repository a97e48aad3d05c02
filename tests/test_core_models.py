"""Tests for features, HW2VEC, GNN4IP, metrics, dataset, trainer."""

import numpy as np
import pytest

from repro.core import (
    FEATURE_DIM,
    GNN4IP,
    GraphRecord,
    HW2VEC,
    Trainer,
    VOCABULARY,
    build_pair_dataset,
    confusion_from_scores,
    cosine_similarity_np,
    make_pairs,
    one_hot_features,
    split_pairs,
)
from repro.core.dataset import batches
from repro.core.metrics import ConfusionMatrix
from repro.errors import DatasetError, ModelError
from repro.ir.frontends import get_frontend

extract_rtl = get_frontend("rtl").extract

XOR_MODULE = """
module m(input a, input b, output y);
  assign y = a ^ b;
endmodule
"""

AND_MODULE = """
module m2(input a, input b, output y);
  assign y = a & b;
endmodule
"""


@pytest.fixture(scope="module")
def xor_graph():
    return extract_rtl(XOR_MODULE)


@pytest.fixture(scope="module")
def and_graph():
    return extract_rtl(AND_MODULE)


class TestFeatures:
    def test_vocabulary_unique(self):
        assert len(VOCABULARY) == len(set(VOCABULARY))

    def test_vocabulary_covers_core_labels(self):
        for label in ("and", "xor", "plus", "branch", "dff", "input",
                      "output", "wire", "reg", "const", "concat"):
            assert label in VOCABULARY

    def test_one_hot_shape_and_rows(self, xor_graph):
        features = one_hot_features(xor_graph)
        assert features.shape == (len(xor_graph), FEATURE_DIM)
        np.testing.assert_array_equal(features.sum(axis=1),
                                      np.ones(len(xor_graph)))

    def test_one_hot_positions(self, xor_graph):
        features = one_hot_features(xor_graph)
        for node in xor_graph.nodes:
            assert features[node.node_id, VOCABULARY.index(node.label)] == 1


class TestHW2VEC:
    def test_embedding_dimension(self, xor_graph):
        encoder = HW2VEC(hidden=16, seed=0)
        assert encoder.embed(xor_graph).shape == (16,)

    def test_deterministic_in_eval_mode(self, xor_graph):
        encoder = HW2VEC(seed=0)
        first = encoder.embed(xor_graph)
        second = encoder.embed(xor_graph)
        np.testing.assert_array_equal(first, second)

    def test_same_seed_same_weights(self, xor_graph):
        a = HW2VEC(seed=3).embed(xor_graph)
        b = HW2VEC(seed=3).embed(xor_graph)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, xor_graph):
        a = HW2VEC(seed=1).embed(xor_graph)
        b = HW2VEC(seed=2).embed(xor_graph)
        assert not np.allclose(a, b)

    def test_embed_many(self, xor_graph, and_graph):
        out = HW2VEC(seed=0).embed_many([xor_graph, and_graph])
        assert out.shape == (2, 16)

    def test_num_layers_validated(self):
        with pytest.raises(ValueError):
            HW2VEC(num_layers=0)

    def test_paper_defaults(self):
        encoder = HW2VEC()
        assert encoder.hidden == 16
        assert len(encoder.convs) == 2
        assert encoder.pool.ratio == 0.5
        assert encoder.readout.mode == "max"
        assert encoder.dropout.rate == 0.1


class TestGNN4IP:
    def test_similarity_range(self, xor_graph, and_graph):
        model = GNN4IP(seed=0)
        score = model.similarity(xor_graph, and_graph)
        assert -1.0 <= score <= 1.0

    def test_self_similarity_is_one(self, xor_graph):
        model = GNN4IP(seed=0)
        assert model.similarity(xor_graph, xor_graph) == pytest.approx(1.0)

    def test_predict_uses_delta(self, xor_graph):
        model = GNN4IP(seed=0, delta=0.99)
        assert model.predict(xor_graph, xor_graph) == 1
        model.delta = 1.1
        assert model.predict(xor_graph, xor_graph) == 0

    def test_tune_delta_perfect_separation(self):
        model = GNN4IP(seed=0)
        delta, accuracy = model.tune_delta(
            [0.9, 0.8, -0.2, -0.5], [1, 1, 0, 0])
        assert accuracy == 1.0
        assert -0.2 <= delta < 0.8

    def test_tune_delta_empty_rejected(self):
        with pytest.raises(ModelError):
            GNN4IP(seed=0).tune_delta([], [])

    def test_tune_delta_bad_labels(self):
        with pytest.raises(ModelError):
            GNN4IP(seed=0).tune_delta([0.5], [2])

    def test_cosine_similarity_np(self):
        assert cosine_similarity_np([1, 0], [0, 1]) == pytest.approx(0.0)
        assert cosine_similarity_np([1, 1], [1, 1]) == pytest.approx(1.0)
        assert cosine_similarity_np([1, 0], [-1, 0]) == pytest.approx(-1.0)


class TestMetrics:
    def test_accuracy(self):
        matrix = ConfusionMatrix(tp=8, fp=1, fn=2, tn=9)
        assert matrix.accuracy == pytest.approx(17 / 20)

    def test_fnr(self):
        matrix = ConfusionMatrix(tp=8, fp=0, fn=2, tn=10)
        assert matrix.false_negative_rate == pytest.approx(0.2)

    def test_fnr_no_positives(self):
        assert ConfusionMatrix(tn=5).false_negative_rate == 0.0

    def test_precision_recall(self):
        matrix = ConfusionMatrix(tp=6, fp=2, fn=3, tn=9)
        assert matrix.precision == pytest.approx(6 / 8)
        assert matrix.recall == pytest.approx(6 / 9)

    def test_confusion_from_scores(self):
        matrix = confusion_from_scores(
            [0.9, 0.6, 0.4, -0.3], [1, 0, 1, 0], delta=0.5)
        assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == (1, 1, 1, 1)

    def test_confusion_accepts_pm_one_labels(self):
        matrix = confusion_from_scores([0.9, -0.9], [1, -1], delta=0.0)
        assert matrix.tp == 1
        assert matrix.tn == 1

    def test_as_text_contains_counts(self):
        text = ConfusionMatrix(tp=5, fp=1, fn=2, tn=7).as_text()
        assert "TP:      5" in text


class TestPairDataset:
    def records(self, n_designs=3, instances=3):
        graph = extract_rtl(XOR_MODULE)
        records = []
        for d in range(n_designs):
            for i in range(instances):
                records.append(GraphRecord(design=f"d{d}",
                                           instance=f"d{d}_i{i}",
                                           graph=graph))
        return records

    def test_pair_labels(self):
        records = self.records(2, 2)
        pairs = make_pairs(records)
        assert len(pairs) == 6
        positives = [p for p in pairs if p[2] == 1]
        assert len(positives) == 2  # one per design

    def test_split_is_stratified(self):
        pairs = make_pairs(self.records(3, 3))
        train, test = split_pairs(pairs, test_fraction=0.25, seed=1)
        assert len(train) + len(test) == len(pairs)
        assert any(label == 1 for _, _, label in test)
        assert any(label == -1 for _, _, label in test)

    def test_split_deterministic(self):
        pairs = make_pairs(self.records())
        assert split_pairs(pairs, seed=5) == split_pairs(pairs, seed=5)

    def test_split_fraction_validated(self):
        with pytest.raises(DatasetError):
            split_pairs([], test_fraction=0.0)

    def test_build_dataset_summary(self):
        dataset = build_pair_dataset(self.records(3, 2), seed=0)
        summary = dataset.summary()
        assert summary["graphs"] == 6
        assert summary["pairs"] == 15
        assert summary["similar_pairs"] == 3

    def test_build_needs_two_designs(self):
        with pytest.raises(DatasetError):
            build_pair_dataset(self.records(1, 3))

    def test_batches_cover_all_pairs(self):
        pairs = make_pairs(self.records(3, 3))
        batched = list(batches(pairs, 7, seed=0))
        assert sum(len(b) for b in batched) == len(pairs)
        assert all(len(b) <= 7 for b in batched)

    def test_batches_bad_size(self):
        with pytest.raises(DatasetError):
            list(batches([], 0))


class TestTrainer:
    @pytest.fixture(scope="class")
    def tiny_dataset(self):
        xor_a = extract_rtl(XOR_MODULE)
        xor_b = extract_rtl(
            XOR_MODULE.replace("a ^ b", "b ^ a"))
        and_a = extract_rtl(AND_MODULE)
        and_b = extract_rtl(AND_MODULE.replace("a & b", "b & a"))
        counter = extract_rtl("""
module c(input clk, output reg [3:0] q);
  always @(posedge clk) q <= q + 4'd1;
endmodule
""")
        records = [
            GraphRecord("xor", "x0", xor_a), GraphRecord("xor", "x1", xor_b),
            GraphRecord("and", "a0", and_a), GraphRecord("and", "a1", and_b),
            GraphRecord("cnt", "c0", counter),
        ]
        return build_pair_dataset(records, test_fraction=0.2, seed=1)

    def test_loss_decreases(self, tiny_dataset):
        # Dropout off so the per-epoch loss is comparable across epochs.
        trainer = Trainer(GNN4IP(seed=0, dropout=0.0), lr=0.01, seed=0)
        losses = [trainer.train_epoch(tiny_dataset, epoch)[0]
                  for epoch in range(15)]
        assert min(losses[5:]) <= losses[0] + 1e-9

    def test_fit_returns_history(self, tiny_dataset):
        trainer = Trainer(GNN4IP(seed=0), seed=0)
        history = trainer.fit(tiny_dataset, epochs=3)
        assert len(history["losses"]) == 3
        assert "delta" in history
        assert 0.0 <= history["train_accuracy"] <= 1.0

    def test_test_outputs_confusion(self, tiny_dataset):
        trainer = Trainer(GNN4IP(seed=0), seed=0)
        trainer.fit(tiny_dataset, epochs=2)
        result = trainer.test(tiny_dataset)
        assert result["confusion"].total == len(tiny_dataset.test_pairs)
        assert 0.0 <= result["accuracy"] <= 1.0

    def test_unknown_optimizer(self):
        with pytest.raises(ModelError):
            Trainer(GNN4IP(seed=0), optimizer="rmsprop")

    def test_embed_once_matches_per_pair(self, tiny_dataset):
        """Shared-embedding similarities equal per-pair forward passes."""
        model = GNN4IP(seed=0)
        trainer = Trainer(model, seed=0)
        sims, labels, _ = trainer.evaluate_pairs(
            tiny_dataset, tiny_dataset.test_pairs)
        for (i, j, _), sim in zip(tiny_dataset.test_pairs, sims):
            direct = model.similarity(tiny_dataset.records[i].graph,
                                      tiny_dataset.records[j].graph)
            assert sim == pytest.approx(direct, abs=1e-9)
