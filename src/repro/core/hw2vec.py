"""hw2vec: the graph-embedding model (paper §III-C, Fig. 3).

Architecture (paper's evaluation settings as defaults): a stack of GCN
layers (2 layers, 16 hidden units), dropout 0.1 after each, a self-attention
graph-pooling layer with ratio 0.5, and a max readout producing the graph
embedding h_G.

:class:`HW2VEC` holds the parameters and settings; the computation is the
one batched forward pass, :func:`repro.nn.batch.batched_forward` (with its
hand-derived backward for training).  A single graph is a batch of one.

The encoder consumes :class:`~repro.ir.graphir.GraphIR` through a pluggable
featurizer (see :mod:`repro.core.features`): RTL dataflow graphs and
gate-level netlist graphs, both GraphIR, flow through the same layers,
differing only in the node vocabulary their featurizer one-hot encodes.
The featurizer is part of the model's identity — it is recorded in
``config`` so persistence and the fingerprint index can refuse graphs
from the wrong frontend.
"""

import numpy as np

from repro.core.features import get_featurizer
from repro.errors import GraphIRError
from repro.ir import to_graphir
from repro.nn.layers import Dropout, GCNConv, Module
from repro.nn.pooling import Readout, SAGPool


class PreparedGraph:
    """A GraphIR converted to model inputs: one-hot features plus edges.

    ``rows``/``cols`` are the graph's symmetrized, deduplicated edges as
    local int64 coordinates, sorted row-major (a self-loop appears once).
    Normalization is left to :func:`repro.nn.batch.pack_prepared`, which
    normalizes a whole batch at once.  Conversion is deterministic, so
    prepared graphs can be cached and reused across epochs.  Accepts
    anything :func:`repro.ir.to_graphir` can adapt (a GraphIR or a
    gate-level Netlist).  :meth:`restrict` derives the prepared graph of
    a node subset (a subgraph chunk) from these arrays without touching
    the graph again.

    Raises:
        GraphIRError: when the graph has no nodes (there is nothing to
            embed).
    """

    __slots__ = ("name", "level", "features", "rows", "cols", "num_nodes")

    def __init__(self, graph, featurizer="rtl"):
        ir = to_graphir(graph)
        featurizer = get_featurizer(featurizer)
        self.name = ir.name
        self.level = getattr(ir, "level", featurizer.level)
        self.features = featurizer.features(ir)
        self.num_nodes = n = len(ir)
        if n == 0:
            raise GraphIRError(f"graph {ir.name!r} has no nodes to embed")
        src, dst = ir.edge_arrays()
        keys = np.unique(np.concatenate([src * n + dst, dst * n + src]))
        self.rows, self.cols = np.divmod(keys, n)

    def restrict(self, members):
        """The prepared graph of the subgraph induced by ``members``.

        ``members`` are sorted, distinct node ids.  The result equals
        ``PreparedGraph(graph.subgraph(members))`` array for array: a
        node's one-hot row depends on its label alone, and renumbering
        through the sorted ids preserves order, so the kept edges stay
        deduplicated and row-major sorted.

        Raises:
            GraphIRError: when ``members`` is empty.
        """
        members = np.asarray(members, dtype=np.int64)
        if len(members) == 0:
            raise GraphIRError(f"a subgraph of {self.name!r} has no nodes "
                               f"to embed")
        local = np.full(self.num_nodes, -1, dtype=np.int64)
        local[members] = np.arange(len(members))
        rows, cols = local[self.rows], local[self.cols]
        keep = (rows >= 0) & (cols >= 0)
        part = object.__new__(PreparedGraph)
        part.name = self.name
        part.level = self.level
        part.features = self.features[members]
        part.num_nodes = len(members)
        part.rows, part.cols = rows[keep], cols[keep]
        return part


class GraphSlice:
    """A node subset of a prepared graph, embedded as a graph of its own.

    :meth:`HW2VEC.prepare` turns it into ``parent.restrict(members)``, so
    a subgraph chunk reuses its design's features and edges instead of
    being copied and featurized again.
    """

    __slots__ = ("parent", "members")

    def __init__(self, parent, members):
        self.parent = parent
        self.members = members


class HW2VEC(Module):
    """Graph encoder: GraphIR -> fixed-size embedding.

    Args:
        in_features: node feature width (defaults to the featurizer's
            vocabulary size).
        hidden: GCN hidden units (paper: 16).
        num_layers: GCN depth (paper: 2).
        pool_ratio: SAGPool keep ratio (paper: 0.5).
        readout: ``max`` / ``mean`` / ``sum`` (paper: max).
        dropout: dropout rate after each GCN layer (paper: 0.1).
        seed: RNG seed for weight init and dropout masks.
        featurizer: registry name (``rtl`` / ``netlist``) or a
            :class:`repro.ir.Featurizer` instance; fixes which graph level
            this encoder accepts.
    """

    def __init__(self, in_features=None, hidden=16, num_layers=2,
                 pool_ratio=0.5, readout="max", dropout=0.1, seed=0,
                 featurizer="rtl"):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one GCN layer")
        self.featurizer = get_featurizer(featurizer)
        if in_features is None:
            in_features = self.featurizer.dim
        #: Constructor arguments, recorded so saved models can be rebuilt
        #: with the right architecture (and featurizer/frontend) and
        #: fingerprinted for index reuse.
        self.config = {
            "in_features": in_features, "hidden": hidden,
            "num_layers": num_layers, "pool_ratio": pool_ratio,
            "readout": readout, "dropout": dropout,
            "featurizer": self.featurizer.name,
        }
        rng = np.random.default_rng(seed)
        self.convs = []
        width = in_features
        for index in range(num_layers):
            conv = GCNConv(width, hidden, rng=rng)
            self.register_module(f"conv{index}", conv)
            self.convs.append(conv)
            width = hidden
        self.dropout = self.register_module("dropout", Dropout(dropout, rng=rng))
        self.pool = self.register_module("pool",
                                         SAGPool(hidden, pool_ratio, rng=rng))
        self.readout = self.register_module("readout", Readout(readout))
        self.hidden = hidden

    def prepare(self, graph):
        """Convert a GraphIR or Netlist into cached model inputs.

        A :class:`GraphSlice` is prepared by restricting its parent's
        prepared arrays to its members.

        Raises:
            ModelError: when the graph's level does not match the
                encoder's featurizer (e.g. a netlist graph fed to an
                RTL-trained model).
            GraphIRError: when the graph has no nodes.
        """
        if isinstance(graph, GraphSlice):
            self.featurizer.check(graph.parent)
            return graph.parent.restrict(graph.members)
        return PreparedGraph(graph, self.featurizer)

    def embed(self, graph):
        """Embed one graph (prepares it first); returns a numpy vector."""
        return self.embed_many([graph])[0]

    def embed_many(self, graphs, batch_size=64):
        """Embed a sequence of graphs; returns an (n, hidden) array.

        Graphs are packed into block-diagonal batches and embedded in one
        forward pass per batch (:func:`repro.nn.batch.batched_embed`).
        """
        from repro.nn.batch import batched_embed

        return batched_embed(self, graphs, batch_size=batch_size)
