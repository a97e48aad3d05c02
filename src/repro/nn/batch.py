"""The hw2vec model's one forward pass and its hand-derived backward.

The model is fixed (paper Fig. 3): GCN layers, SAGPool top-k with a
``tanh`` gate, and a readout.  Every embedding -- one graph or a corpus,
inference or training -- goes through :func:`batched_forward` over a
packed batch:

- node features are stacked into a single ``(sum(N_i), F)`` matrix, and
- every graph's edge arrays are offset into one edge list, normalized
  once by :func:`~repro.nn.layers.normalize_edges` into a block-diagonal
  CSR matrix,

so every GCN layer runs as a single sparse @ dense @ dense product over the
whole batch.  The normalized adjacency has no cross-block entries and each
entry is computed exactly as a one-graph batch computes it (degrees never
cross blocks).  The pooling / readout tail is segment-vectorized: one
``np.lexsort`` ranks every node within its graph's segment for top-k
(:func:`segment_topk`), and one ``reduceat`` reduces each graph's kept
rows (:func:`segment_readout`).

Inference passes no dropout masks.  Training passes the masks of
:meth:`~repro.nn.layers.Dropout.masks` and a ``ctx`` dict, scores the
embeddings with :func:`batched_pair_loss`, which also returns the loss's
closed-form gradient with respect to the embedding rows, and hands that
gradient to :func:`batched_backward`, which propagates it by hand into
each parameter's ``.grad``.
"""

import numpy as np

from repro.nn.layers import normalize_edges


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


def segment_topk(scores, batch, ratio):
    """SAGPool's top-k over every graph of ``batch`` at once.

    Graph ``g`` keeps its ``max(1, ceil(ratio * N_g))`` highest-scoring
    nodes; ties keep node order.  One stable ``np.lexsort`` sorts by
    segment, then by descending score, so a node's rank within its graph
    is its sorted position minus the segment's first row.

    Returns:
        (kept rows in ascending order, per-graph kept counts)
    """
    sizes = np.asarray(batch.sizes)
    segment = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.maximum(1, np.ceil(ratio * sizes).astype(np.int64))
    order = np.lexsort((-scores, segment))
    rank = np.arange(len(order)) - batch.offsets[segment]
    return np.sort(order[rank < counts[segment]]), counts


def segment_readout(rows, counts, mode):
    """Readout (Eq. 3) of consecutive row segments of lengths ``counts``.

    ``mode`` is ``max``, ``mean`` or ``sum``; returns one row per segment.
    """
    starts = np.cumsum(counts) - counts
    if mode == "max":
        return np.maximum.reduceat(rows, starts, axis=0)
    out = np.add.reduceat(rows, starts, axis=0)
    if mode == "mean":
        out /= counts[:, None]
    return out


def batched_forward(encoder, batch, masks=None, ctx=None):
    """The model's forward pass over a :class:`GraphBatch`.

    Args:
        encoder: a :class:`~repro.core.hw2vec.HW2VEC` (weights are read
            directly).
        batch: output of :func:`pack_prepared`.
        masks: per-layer dropout masks from
            :meth:`~repro.nn.layers.Dropout.masks`, or ``None`` for no
            dropout (inference).
        ctx: optional dict; filled with what :func:`batched_backward`
            needs.

    Returns:
        ``(n_graphs, hidden)`` embedding matrix.
    """
    x = batch.features
    layers = []
    for index, conv in enumerate(encoder.convs):
        ax = batch.a_norm @ x
        x = ax @ conv.weight.data
        if conv.bias is not None:
            x = x + conv.bias.data
        np.maximum(x, 0.0, out=x)
        layers.append((ax, x))
        if masks is not None:
            x = x * masks[index]

    score_layer = encoder.pool.score_layer
    ax_score = batch.a_norm @ x
    scores = ax_score @ score_layer.weight.data
    if score_layer.bias is not None:
        scores = scores + score_layer.bias.data
    scores = scores.ravel()

    kept, counts = segment_topk(scores, batch, encoder.pool.ratio)
    gate = np.tanh(scores[kept])
    gated = x[kept] * gate[:, None]
    out = segment_readout(gated, counts, encoder.readout.mode)
    if ctx is not None:
        ctx.update(layers=layers, x=x, ax_score=ax_score, kept=kept,
                   counts=counts, gate=gate, gated=gated, out=out)
    return out


def batched_backward(encoder, batch, masks, ctx, d_embeddings):
    """Backpropagate ``d_embeddings`` through a :func:`batched_forward`.

    Accumulates into each encoder parameter's ``.grad``.  ``masks`` and
    ``ctx`` are the ones the forward pass got.  The steps mirror the
    forward's in reverse: the readout sends each graph's gradient to its
    kept rows (max splits it evenly among tied maxima), the ``tanh`` gate
    splits it between the kept features and their scores, and every GCN
    layer ``relu(A X W + b)`` passes ``A^T (dY W^T)`` down to its input.
    """
    x, kept, counts, gate = ctx["x"], ctx["kept"], ctx["counts"], ctx["gate"]
    row_graph = np.repeat(np.arange(len(counts)), counts)
    mode = encoder.readout.mode
    if mode == "max":
        share = (ctx["gated"] == ctx["out"][row_graph]).astype(np.float64)
        ties = segment_readout(share, counts, "sum")
        share /= np.maximum(ties, 1.0)[row_graph]
        d_gated = share * d_embeddings[row_graph]
    elif mode == "mean":
        d_gated = (d_embeddings * (1.0 / counts)[:, None])[row_graph]
    else:
        d_gated = d_embeddings[row_graph]

    d_x = np.zeros_like(x)
    d_x[kept] = d_gated * gate[:, None]
    d_scores = np.zeros((len(x), 1))
    d_scores[kept, 0] = (d_gated * x[kept]).sum(axis=1) * (1.0 - gate ** 2)
    d_x = d_x + _linear_backward(encoder.pool.score_layer, batch,
                                 ctx["ax_score"], d_scores)

    for index in reversed(range(len(encoder.convs))):
        ax, activation = ctx["layers"][index]
        if masks is not None:
            d_x = d_x * masks[index]
        d_x = d_x * (activation > 0)
        d_x = _linear_backward(encoder.convs[index], batch, ax, d_x,
                               needs_input=index > 0)


def _linear_backward(conv, batch, ax, d_out, needs_input=True):
    """Gradients of ``out = ax @ W + b`` with ``ax = A @ X``.

    Adds the ``W`` and ``b`` gradients into their ``.grad`` and returns
    ``dX = A^T dax`` (``None`` when ``needs_input`` is false: the input is
    the features).
    """
    if conv.bias is not None:
        _add_grad(conv.bias, d_out.sum(axis=0))
    _add_grad(conv.weight, ax.T @ d_out)
    if needs_input:
        return batch.a_norm.T @ (d_out @ conv.weight.data.T)
    return None


def _add_grad(param, grad):
    param.grad = grad if param.grad is None else param.grad + grad


def batched_pair_loss(embeddings, pairs, margin=0.5, positive_weight=1.0,
                      eps=1e-12):
    """Mean cosine-embedding loss (Eq. 7) over row pairs, with its gradient.

    With ``s`` the cosine of a pair (Eq. 6, norms stabilized by ``eps``),
    a similar pair costs ``positive_weight * (1 - s)`` and a dissimilar
    one ``max(0, s - margin)``; the loss is their mean.

    The gradient is in closed form, evaluated in a fixed order: each
    pair's ``d loss / d s`` goes to the dot product (``/ den``) and to the
    norm product ``den`` (``-dots / den**2``), and through each norm
    ``n = a ** 0.5``, ``a = |x|**2 + eps``, back to the row, where the
    norm term enters twice.  The left and right rows are scattered into
    separate buffers and added.  Seeded training trajectories and
    ``tests/data/pair_loss_golden.json`` pin the rounding this order gives.

    Args:
        embeddings: ``(m, hidden)`` array, e.g. :func:`batched_forward`'s
            output.
        pairs: iterable of ``(i, j, label)`` row-index pairs with label in
            {+1, -1}.
        margin: the paper fixes this to 0.5.
        positive_weight: loss weight for similar pairs (class balancing).

    Returns:
        ``(loss, sims, grad)``: the mean loss as a float, the
        ``(n_pairs,)`` cosines, and the ``(m, hidden)`` gradient of the
        loss with respect to ``embeddings``.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs given")
    labels = {label for _, _, label in pairs}
    if not labels <= {1, -1}:
        raise ValueError(f"labels must be +1 or -1, got {sorted(labels)}")
    left_rows = np.array([i for i, _, _ in pairs], dtype=np.int64)
    right_rows = np.array([j for _, j, _ in pairs], dtype=np.int64)
    positive = np.array([label == 1 for _, _, label in pairs])
    left, right = embeddings[left_rows], embeddings[right_rows]
    dots = (left * right).sum(axis=1)
    sq_l = (left * left).sum(axis=1) + eps
    sq_r = (right * right).sum(axis=1) + eps
    norm_l, norm_r = np.power(sq_l, 0.5), np.power(sq_r, 0.5)
    den = norm_l * norm_r
    sims = dots / den

    scale = 1.0 / len(pairs)
    hinge = sims[~positive] + (-margin)
    active = hinge > 0
    loss = 0.0
    d_sims = np.empty(len(pairs))
    if positive.any():
        pos_loss = (1.0 + (-sims[positive])).sum()
        if positive_weight != 1.0:
            pos_loss = pos_loss * positive_weight
        loss = loss + pos_loss
        d_sims[positive] = -(scale * positive_weight)
    if not positive.all():
        loss = loss + (hinge * active).sum()
        d_sims[~positive] = scale * active

    d_dots = d_sims / den
    d_den = (-d_sims * dots) / den ** 2
    d_sq_l = (d_den * norm_r * 0.5) * np.power(sq_l, -0.5)
    d_sq_r = (d_den * norm_l * 0.5) * np.power(sq_r, -0.5)
    d_left = (d_dots[:, None] * right + d_sq_l[:, None] * left) \
        + d_sq_l[:, None] * left
    d_right = (d_dots[:, None] * left + d_sq_r[:, None] * right) \
        + d_sq_r[:, None] * right
    grad_left = np.zeros_like(embeddings)
    grad_right = np.zeros_like(embeddings)
    np.add.at(grad_left, left_rows, d_left)
    np.add.at(grad_right, right_rows, d_right)
    return float(loss * scale), sims, grad_left + grad_right


def batched_embed(encoder, graphs, batch_size=64):
    """Embed a sequence of DFGs (or prepared graphs) in large batches.

    Items that are not :class:`~repro.core.hw2vec.PreparedGraph` yet
    (graphs, :class:`~repro.core.hw2vec.GraphSlice` chunk parts) go
    through ``encoder.prepare`` once each.

    Splits the input into batches of at most ``batch_size`` graphs to bound
    peak memory, packs each, and runs :func:`batched_forward`.  A graph's
    embedding does not depend on the batch it rides in beyond BLAS
    summation order (~1e-9 relative).

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
