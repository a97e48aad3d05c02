"""Numpy neural-network stack replacing PyTorch/PyG.

Contents: the model's modules and their parameters (:class:`GCNConv`,
:class:`SAGPool`, readout, dropout), its one batched forward pass with a
hand-derived backward (:mod:`repro.nn.batch`), the cosine-embedding pair
loss with its closed-form gradient, and optimizers.
"""

from repro.nn.batch import (
    GraphBatch,
    batched_backward,
    batched_embed,
    batched_forward,
    batched_pair_loss,
    pack_prepared,
    segment_readout,
    segment_topk,
)
from repro.nn.layers import (
    Dropout,
    GCNConv,
    Module,
    Parameter,
    glorot,
    normalize_edges,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.pooling import Readout, SAGPool

__all__ = [
    "Module", "Parameter", "GCNConv", "Dropout", "glorot", "normalize_edges",
    "SAGPool", "Readout",
    "GraphBatch", "batched_embed", "batched_forward", "batched_backward",
    "batched_pair_loss", "pack_prepared", "segment_readout", "segment_topk",
    "Optimizer", "SGD", "Adam",
]
