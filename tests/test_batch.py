"""Batched graph inference must reproduce per-graph embeddings.

Equality is asserted to 1e-9 relative tolerance: the math is identical, but
packing graphs into one matrix changes BLAS blocking, which perturbs the
last ~2 bits of the mantissa relative to per-graph matmuls.
"""

import numpy as np
import pytest

from repro.core import HW2VEC
from repro.ir.frontends import get_frontend
from repro.nn import batched_embed, batched_forward, pack_prepared

extract_rtl = get_frontend("rtl").extract

TEXTS = [
    """
    module adder(input [3:0] a, input [3:0] b, output [4:0] s);
      assign s = a + b;
    endmodule
    """,
    """
    module tiny(input a, output y);
      assign y = ~a;
    endmodule
    """,
    """
    module mix(input [7:0] d, input [2:0] sel, output q, output p);
      assign q = d[sel];
      assign p = ^d;
    endmodule
    """,
    """
    module seq(input clk, input d, output reg q);
      always @(posedge clk) q <= d;
    endmodule
    """,
]


@pytest.fixture(scope="module")
def graphs():
    return [extract_rtl(text) for text in TEXTS]


def assert_embeddings_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=1e-9, atol=1e-15)


class TestPacking:
    def test_offsets_and_sizes(self, graphs):
        encoder = HW2VEC(seed=0)
        prepared = [encoder.prepare(g) for g in graphs]
        batch = pack_prepared(prepared)
        assert len(batch) == len(graphs)
        assert batch.sizes == [len(g) for g in graphs]
        assert batch.features.shape[0] == sum(len(g) for g in graphs)
        assert batch.a_norm.shape == (batch.features.shape[0],) * 2

    def test_block_diagonal_no_cross_edges(self, graphs):
        encoder = HW2VEC(seed=0)
        prepared = [encoder.prepare(g) for g in graphs]
        batch = pack_prepared(prepared)
        dense = batch.a_norm.toarray()
        # Everything outside the diagonal blocks must be exactly zero.
        for i in range(len(batch)):
            lo, hi = batch.offsets[i], batch.offsets[i + 1]
            dense[lo:hi, lo:hi] = 0.0
        assert not dense.any()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            pack_prepared([])


class TestBatchedForward:
    @pytest.mark.parametrize("readout", ["max", "mean", "sum"])
    def test_matches_embed_all_readouts(self, graphs, readout):
        encoder = HW2VEC(seed=1, readout=readout)
        batched = batched_embed(encoder, graphs)
        single = np.stack([encoder.embed(g) for g in graphs])
        assert_embeddings_close(batched, single)

    def test_single_graph(self, graphs):
        encoder = HW2VEC(seed=2)
        out = batched_embed(encoder, graphs[:1])
        np.testing.assert_array_equal(out[0], encoder.embed(graphs[0]))

    def test_chunking_is_invisible(self, graphs):
        encoder = HW2VEC(seed=0)
        whole = batched_embed(encoder, graphs, batch_size=64)
        chunked = batched_embed(encoder, graphs, batch_size=1)
        assert_embeddings_close(whole, chunked)

    def test_order_preserved(self, graphs):
        encoder = HW2VEC(seed=0)
        forward = batched_embed(encoder, graphs)
        backward = batched_embed(encoder, list(reversed(graphs)))
        assert_embeddings_close(forward, backward[::-1])

    def test_accepts_prepared_graphs(self, graphs):
        encoder = HW2VEC(seed=0)
        prepared = [encoder.prepare(g) for g in graphs]
        np.testing.assert_array_equal(
            batched_forward(encoder, pack_prepared(prepared)),
            batched_embed(encoder, prepared))

    def test_empty_input(self):
        encoder = HW2VEC(seed=0)
        assert batched_embed(encoder, []).shape == (0, encoder.hidden)

    def test_embed_many_uses_batched_path(self, graphs):
        encoder = HW2VEC(seed=0)
        np.testing.assert_array_equal(
            encoder.embed_many(graphs),
            batched_embed(encoder, graphs))
