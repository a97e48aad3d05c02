"""Graph pooling: self-attention top-k pooling (SAGPool) and readout.

SAGPool (Lee et al. [28], as used by the paper's Graph_Pool layer): a GCN
scoring layer predicts one attention value per node, the top ``ceil(ratio*N)``
nodes are kept, and the surviving node features are gated by ``tanh`` of
their scores.  Readout (Eq. 3) reduces node embeddings to one graph vector
by max / mean / sum.  These modules hold the parameters and settings; the
computation is :func:`repro.nn.batch.batched_forward`.
"""

from repro.nn.layers import GCNConv, Module


class SAGPool(Module):
    """Self-attention graph pooling with top-k node filtering.

    Args:
        channels: node embedding width entering the pool.
        ratio: fraction of nodes kept (the paper uses 0.5).
    """

    def __init__(self, channels, ratio=0.5, rng=None):
        super().__init__()
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"pooling ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio
        self.score_layer = self.register_module(
            "score", GCNConv(channels, 1, rng=rng))


_READOUTS = ("max", "mean", "sum")


class Readout(Module):
    """Graph readout (Eq. 3): aggregate node embeddings to a graph vector."""

    def __init__(self, mode="max"):
        super().__init__()
        if mode not in _READOUTS:
            raise ValueError(f"readout mode must be one of {_READOUTS}")
        self.mode = mode
