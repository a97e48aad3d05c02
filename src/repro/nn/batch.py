"""Batched graph compute: many graphs through one forward (or backward) pass.

:class:`~repro.core.hw2vec.HW2VEC` embeds one graph per call, which wastes
time on per-graph Python and small-matrix overhead when embedding a corpus.
Batching packs the graphs into one block-diagonal system:

- node features are stacked into a single ``(sum(N_i), F)`` matrix, and
- every graph's edge arrays are offset into one edge list, normalized
  once by :func:`~repro.nn.layers.normalize_edges` into a block-diagonal
  CSR matrix,

so every GCN layer runs as a single sparse @ dense @ dense product over the
whole batch.  The normalized adjacency has no cross-block entries, and each
entry is computed exactly as a per-graph normalization would compute it
(degrees never cross blocks), so the batched math is exactly the per-graph
math; the only numerical difference is BLAS summation order on the larger
matrices, which the tests bound at 1e-9 relative against
:meth:`HW2VEC.embed` in eval mode.

The pooling / readout tail (top-k selection, tanh gating, reduction) is
inherently per-graph, so it runs as a vectorized numpy loop over the node
segments of the batch.

Two entry points share the packing:

- :func:`batched_forward` / :func:`batched_embed` — raw-numpy eval path
  for inference (no gradient tape, dropout always off).
- :func:`batched_forward_tensor` + :func:`batched_pair_loss` — the
  autograd path the trainer uses: the same block-diagonal system built
  from :class:`~repro.nn.tensor.Tensor` ops, so one ``backward()`` call
  propagates gradients for a whole minibatch of graphs and pair losses.
"""

import numpy as np

from repro.nn.layers import normalize_edges
from repro.nn.pooling import topk_nodes
from repro.nn.tensor import Tensor, concat


class GraphBatch:
    """A packed batch of prepared graphs.

    Attributes:
        features: stacked node features, ``(total_nodes, F)``.
        a_norm: block-diagonal normalized adjacency (CSR).
        sizes: node count per graph.
        offsets: start row of each graph's node segment (len = n_graphs+1).
    """

    __slots__ = ("features", "a_norm", "sizes", "offsets")

    def __init__(self, features, a_norm, sizes):
        self.features = features
        self.a_norm = a_norm
        self.sizes = list(sizes)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])

    def __len__(self):
        return len(self.sizes)

    def segment(self, matrix, index):
        """Rows of ``matrix`` belonging to graph ``index``."""
        return matrix[self.offsets[index]:self.offsets[index + 1]]


def pack_prepared(prepared_graphs):
    """Pack :class:`~repro.core.hw2vec.PreparedGraph` objects into a batch.

    Stacks the features, offsets each graph's edge arrays by its first
    node row, and normalizes the whole block-diagonal adjacency in one
    :func:`~repro.nn.layers.normalize_edges` pass.
    """
    prepared = list(prepared_graphs)
    if not prepared:
        raise ValueError("cannot pack an empty graph batch")
    sizes = [p.num_nodes for p in prepared]
    starts = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(starts, [len(p.rows) for p in prepared])
    rows = np.concatenate([p.rows for p in prepared]) + shift
    cols = np.concatenate([p.cols for p in prepared]) + shift
    features = np.vstack([p.features for p in prepared])
    a_norm = normalize_edges(rows, cols, features.shape[0])
    return GraphBatch(features, a_norm, sizes)


def _readout(x, mode):
    if mode == "max":
        return x.max(axis=0)
    if mode == "mean":
        return x.mean(axis=0)
    return x.sum(axis=0)


def batched_forward(encoder, batch):
    """Eval-mode forward pass over a :class:`GraphBatch`.

    Args:
        encoder: a :class:`~repro.core.hw2vec.HW2VEC` (weights are read
            directly; the encoder's train/eval mode is ignored — dropout
            is always off, matching ``embed``).
        batch: output of :func:`pack_prepared`.

    Returns:
        ``(n_graphs, hidden)`` embedding matrix.
    """
    x = batch.features
    for conv in encoder.convs:
        x = batch.a_norm @ x @ conv.weight.data
        if conv.bias is not None:
            x = x + conv.bias.data
        np.maximum(x, 0.0, out=x)

    score_layer = encoder.pool.score_layer
    scores = batch.a_norm @ x @ score_layer.weight.data
    if score_layer.bias is not None:
        scores = scores + score_layer.bias.data
    scores = scores.ravel()

    ratio = encoder.pool.ratio
    mode = encoder.readout.mode
    out = np.empty((len(batch), encoder.hidden))
    for index, size in enumerate(batch.sizes):
        seg_x = batch.segment(x, index)
        seg_scores = scores[batch.offsets[index]:batch.offsets[index + 1]]
        kept = topk_nodes(seg_scores, size, ratio)
        gate = np.tanh(seg_scores[kept])[:, None]
        out[index] = _readout(seg_x[kept] * gate, mode)
    return out


def batched_forward_tensor(encoder, batch):
    """Autograd-capable forward pass over a :class:`GraphBatch`.

    The differentiable twin of :func:`batched_forward`: runs the GCN stack
    as block-diagonal Tensor ops (building the gradient tape through the
    encoder's weights), honours the encoder's train/eval mode for dropout,
    and applies the SAGPool/readout tail per node segment with
    differentiable gathers.  Dropout masks are drawn *per graph* in packed
    order (graph-major, layer-minor) — the exact RNG consumption order of
    per-graph :meth:`HW2VEC.forward` calls over the same graphs — so
    batched training reproduces the per-graph loop bit-for-bit in its
    randomness, not just in expectation.  Per-graph results match
    :meth:`HW2VEC.forward` on the same mode to BLAS rounding, and — because
    the blocks share no entries — the gradients accumulated by
    ``backward()`` equal the sum of per-graph backward passes.

    Returns:
        ``(n_graphs, hidden)`` embedding Tensor.
    """
    dropout = encoder.dropout
    use_dropout = dropout.training and dropout.rate > 0.0
    masks = None
    if use_dropout:
        layer_chunks = [[] for _ in encoder.convs]
        for size in batch.sizes:
            for chunks in layer_chunks:
                chunks.append(dropout.draw_mask((size, encoder.hidden)))
        masks = [Tensor(np.vstack(chunks)) for chunks in layer_chunks]

    x = Tensor(batch.features)
    for layer, conv in enumerate(encoder.convs):
        x = conv(x, batch.a_norm).relu()
        if use_dropout:
            x = x * masks[layer]
    scores = encoder.pool.score_layer(x, batch.a_norm)
    scores = scores.reshape(scores.shape[0])

    ratio = encoder.pool.ratio
    # Top-k selection is data-dependent but not differentiated (exactly as
    # in SAGPool), so the kept indices come from the raw score values.
    kept_all = []
    counts = []
    for index, size in enumerate(batch.sizes):
        start = batch.offsets[index]
        kept = topk_nodes(scores.data[start:start + size], size, ratio)
        kept_all.append(start + kept)
        counts.append(len(kept))
    kept_all = np.concatenate(kept_all)

    gate = scores.index_select(kept_all).tanh().reshape(len(kept_all), 1)
    gated = x.index_select(kept_all) * gate

    mode = encoder.readout.mode
    rows = []
    offset = 0
    for keep in counts:
        segment = gated.index_select(np.arange(offset, offset + keep))
        if mode == "max":
            row = segment.max(axis=0)
        elif mode == "mean":
            row = segment.mean(axis=0)
        else:
            row = segment.sum(axis=0)
        rows.append(row.reshape(1, encoder.hidden))
        offset += keep
    return concat(rows, axis=0)


def batched_pair_loss(embeddings, pairs, margin=0.5, positive_weight=1.0,
                      eps=1e-12):
    """Vectorized cosine-embedding loss (Eq. 7) over rows of a batch.

    Args:
        embeddings: ``(m, hidden)`` Tensor (e.g. from
            :func:`batched_forward_tensor`).
        pairs: iterable of ``(i, j, label)`` row-index pairs with label in
            {+1, -1}.
        margin: the paper fixes this to 0.5.
        positive_weight: loss weight for similar pairs (class balancing).

    Returns:
        (mean loss Tensor, ``(n_pairs,)`` numpy similarity array) — both
        matching a per-pair :func:`~repro.nn.loss.cosine_embedding_loss`
        loop to summation-order rounding.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs given")
    left = embeddings.index_select([i for i, _, _ in pairs])
    right = embeddings.index_select([j for _, j, _ in pairs])
    dots = (left * right).sum(axis=1)
    norms_l = ((left * left).sum(axis=1) + eps).sqrt()
    norms_r = ((right * right).sum(axis=1) + eps).sqrt()
    sims = dots / (norms_l * norms_r)

    labels = np.array([label for _, _, label in pairs])
    positive = np.flatnonzero(labels == 1)
    negative = np.flatnonzero(labels != 1)
    total = Tensor(0.0)
    if len(positive):
        pos_loss = (1.0 - sims.index_select(positive)).sum()
        if positive_weight != 1.0:
            pos_loss = pos_loss * positive_weight
        total = total + pos_loss
    if len(negative):
        total = total + (sims.index_select(negative) - margin).relu().sum()
    return total * (1.0 / len(pairs)), sims.data.copy()


def batched_embed(encoder, graphs, batch_size=64):
    """Embed a sequence of DFGs (or prepared graphs) in large batches.

    Items that are not :class:`~repro.core.hw2vec.PreparedGraph` yet
    (graphs, :class:`~repro.core.hw2vec.GraphSlice` chunk parts) go
    through ``encoder.prepare`` once each.

    Splits the input into batches of at most ``batch_size`` graphs to bound
    peak memory, packs each, and runs :func:`batched_forward`.  Results
    match per-graph :meth:`HW2VEC.embed` calls to BLAS rounding (~1e-9
    relative).

    Returns:
        ``(n, hidden)`` numpy array in input order.
    """
    from repro.core.hw2vec import PreparedGraph

    items = list(graphs)
    if not items:
        return np.empty((0, encoder.hidden))
    prepared = [item if isinstance(item, PreparedGraph)
                else encoder.prepare(item) for item in items]
    chunks = []
    for start in range(0, len(prepared), batch_size):
        batch = pack_prepared(prepared[start:start + batch_size])
        chunks.append(batched_forward(encoder, batch))
    return np.vstack(chunks)
