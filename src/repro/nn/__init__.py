"""Numpy-based neural-network stack replacing PyTorch/PyG.

Contents: reverse-mode autograd (:class:`Tensor`), GNN layers
(:class:`GCNConv`), self-attention pooling (:class:`SAGPool`), readout,
cosine-embedding loss, and optimizers.
"""

from repro.nn.batch import (
    GraphBatch,
    batched_embed,
    batched_forward,
    pack_prepared,
)
from repro.nn.layers import (
    Dropout,
    GCNConv,
    Linear,
    Module,
    glorot,
    normalize_adjacency,
    normalize_edges,
)
from repro.nn.loss import cosine_embedding_loss, pairwise_cosine_loss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.pooling import Readout, SAGPool, readout
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
    "Module", "Linear", "GCNConv", "Dropout", "glorot", "normalize_adjacency",
    "normalize_edges",
    "SAGPool", "Readout", "readout",
    "GraphBatch", "batched_embed", "batched_forward", "pack_prepared",
    "cosine_embedding_loss", "pairwise_cosine_loss",
    "Optimizer", "SGD", "Adam",
]
