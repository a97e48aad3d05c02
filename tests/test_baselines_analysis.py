"""Tests for rival baselines and embedding-analysis utilities."""

import numpy as np
import pytest

from repro.analysis import (
    PCA,
    TSNE,
    centroid_separation,
    pca_project,
    purity_with_2means,
    silhouette_score,
    tsne_project,
)
from repro.baselines import (
    RAI_ISVLSI19,
    WatermarkScheme,
    compare_with_gnn,
    ged_similarity,
    greedy_edit_distance,
    probability_of_coincidence,
    spectral_similarity,
    wl_similarity,
)
from repro.ir.frontends import get_frontend

extract_rtl = get_frontend("rtl").extract

XOR_TEXT = """
module m(input a, input b, output y);
  assign y = a ^ b;
endmodule
"""

ADDER_TEXT = """
module m(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule
"""


@pytest.fixture(scope="module")
def xor_graph():
    return extract_rtl(XOR_TEXT)


@pytest.fixture(scope="module")
def adder_graph():
    return extract_rtl(ADDER_TEXT)


class TestGraphSimilarityBaselines:
    def test_wl_self_similarity(self, xor_graph):
        assert wl_similarity(xor_graph, xor_graph) == pytest.approx(1.0)

    def test_wl_discriminates(self, xor_graph, adder_graph):
        cross = wl_similarity(xor_graph, adder_graph)
        assert cross < wl_similarity(xor_graph, xor_graph)

    def test_wl_symmetric(self, xor_graph, adder_graph):
        assert wl_similarity(xor_graph, adder_graph) == pytest.approx(
            wl_similarity(adder_graph, xor_graph))

    def test_ged_identity_zero(self, xor_graph):
        assert greedy_edit_distance(xor_graph, xor_graph) == 0
        assert ged_similarity(xor_graph, xor_graph) == pytest.approx(1.0)

    def test_ged_detects_difference(self, xor_graph, adder_graph):
        assert greedy_edit_distance(xor_graph, adder_graph) > 0
        assert ged_similarity(xor_graph, adder_graph) < 1.0

    def test_spectral_self(self, xor_graph):
        assert spectral_similarity(xor_graph, xor_graph) == pytest.approx(1.0)

    def test_spectral_range(self, xor_graph, adder_graph):
        value = spectral_similarity(xor_graph, adder_graph)
        assert 0.0 <= value <= 1.0


class TestWatermark:
    def test_probability_of_coincidence(self):
        assert probability_of_coincidence(1) == 0.5
        assert probability_of_coincidence(10) == pytest.approx(2 ** -10)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            probability_of_coincidence(0)

    def test_rai_reference_magnitude(self):
        # The paper cites P_c = 1.11e-87: a ~289-bit signature.
        assert RAI_ISVLSI19.p_coincidence == pytest.approx(1.11e-87,
                                                           rel=0.15)

    def test_scheme_summary(self):
        scheme = WatermarkScheme(signature_bits=8, area_overhead=0.1)
        summary = scheme.summary()
        assert summary["p_coincidence"] == pytest.approx(1 / 256)

    def test_compare_table(self):
        table = compare_with_gnn(6.65e-4)
        assert table["gnn_overhead"] == 0.0
        assert table["watermark_overhead"] > 0.0


class TestPCA:
    def test_projects_to_requested_dims(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 8))
        out = pca_project(data, 2)
        assert out.shape == (40, 2)

    def test_first_component_captures_main_axis(self):
        rng = np.random.default_rng(1)
        direction = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        data = (rng.normal(size=(200, 1)) * 10) * direction
        data += rng.normal(scale=0.1, size=(200, 3))
        pca = PCA(1).fit(data)
        alignment = abs(pca.components_[0] @ direction)
        assert alignment > 0.99

    def test_explained_variance_sorted(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(50, 5)) * np.array([5, 3, 1, 0.5, 0.1])
        pca = PCA(5).fit(data)
        ratios = pca.explained_variance_ratio_
        assert all(ratios[i] >= ratios[i + 1] for i in range(len(ratios) - 1))
        assert ratios.sum() <= 1.0 + 1e-9

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PCA(2).transform(np.ones((3, 3)))

    def test_separated_clusters_stay_separated(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(30, 6)) + 10
        b = rng.normal(size=(30, 6)) - 10
        projected = pca_project(np.vstack([a, b]), 2)
        labels = np.array([0] * 30 + [1] * 30)
        assert centroid_separation(projected, labels) > 3.0


class TestTSNE:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(30, 5))
        out = tsne_project(data, 2, n_iter=120)
        assert out.shape == (30, 2)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            TSNE().fit_transform(np.ones((2, 3)))

    def test_separates_two_blobs(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(20, 4)) + 8
        b = rng.normal(size=(20, 4)) - 8
        out = tsne_project(np.vstack([a, b]), 2, perplexity=10, n_iter=500,
                           seed=1)
        labels = np.array([0] * 20 + [1] * 20)
        assert purity_with_2means(out, labels) > 0.9

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(15, 4))
        first = tsne_project(data, seed=7, n_iter=60)
        second = tsne_project(data, seed=7, n_iter=60)
        np.testing.assert_array_equal(first, second)


class TestClusterMetrics:
    def test_silhouette_separated(self):
        a = np.zeros((10, 2))
        b = np.ones((10, 2)) * 100
        labels = np.array([0] * 10 + [1] * 10)
        assert silhouette_score(np.vstack([a, b]), labels) > 0.9

    def test_silhouette_needs_two_clusters(self):
        with pytest.raises(ValueError):
            silhouette_score(np.ones((5, 2)), np.zeros(5))

    def test_centroid_separation_two_required(self):
        with pytest.raises(ValueError):
            centroid_separation(np.ones((6, 2)), np.array([0, 1, 2] * 2))

    def test_purity_perfect(self):
        a = np.zeros((8, 2))
        b = np.ones((8, 2)) * 50
        labels = np.array([0] * 8 + [1] * 8)
        assert purity_with_2means(np.vstack([a, b]), labels) == 1.0
