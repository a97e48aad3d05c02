"""Numpy-based neural-network stack replacing PyTorch/PyG.

Contents: reverse-mode autograd (:class:`Tensor`), the model's modules
(:class:`GCNConv`, :class:`SAGPool`, readout, dropout), its one batched
forward pass with a hand-derived backward (:mod:`repro.nn.batch`),
cosine-embedding loss, and optimizers.
"""

from repro.nn.batch import (
    GraphBatch,
    batched_backward,
    batched_embed,
    batched_forward,
    pack_prepared,
    segment_readout,
    segment_topk,
)
from repro.nn.layers import (
    Dropout,
    GCNConv,
    Linear,
    Module,
    glorot,
    normalize_edges,
)
from repro.nn.loss import cosine_embedding_loss, pairwise_cosine_loss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.pooling import Readout, SAGPool
from repro.nn.tensor import (
    Tensor,
    concat,
    cosine_similarity,
    dot,
    l2_norm,
    spmm,
)

__all__ = [
    "Tensor", "concat", "cosine_similarity", "dot", "l2_norm", "spmm",
    "Module", "Linear", "GCNConv", "Dropout", "glorot", "normalize_edges",
    "SAGPool", "Readout",
    "GraphBatch", "batched_embed", "batched_forward", "batched_backward",
    "pack_prepared", "segment_readout", "segment_topk",
    "cosine_embedding_loss", "pairwise_cosine_loss",
    "Optimizer", "SGD", "Adam",
]
