"""GraphIR: the typed graph intermediate representation.

Every frontend (RTL dataflow analysis, gate-level netlists) lowers a
hardware design to one :class:`GraphIR`: typed nodes (kind + vocabulary
label + optional name) connected by dependency edges, tagged with the
``level`` the graph was extracted at.  Everything downstream of a frontend
— featurization, the hw2vec encoder, batched training, the fingerprint
index — consumes GraphIR only, so a new design representation plugs in by
writing one adapter.

Edges run from the dependent node toward the nodes it depends on, matching
the paper's rooted DFG orientation; the GCN consumes the symmetrized
adjacency, so orientation only matters to structural queries.
"""

import itertools

import numpy as np

#: Node kinds shared by every frontend.  ``op`` nodes carry an operator
#: label, ``signal`` nodes a role label (input/output/wire/reg), ``const``
#: nodes the literal value, and ``cell`` nodes a cell-library gate label.
KIND_SIGNAL = "signal"
KIND_OP = "op"
KIND_CONST = "const"
KIND_CELL = "cell"

#: Graph levels produced by the built-in frontends.
LEVEL_RTL = "rtl"
LEVEL_NETLIST = "netlist"


class IRNode:
    """One vertex of a :class:`GraphIR`.

    Attributes:
        node_id: dense integer id, index into :attr:`GraphIR.nodes`.
        kind: ``signal`` / ``op`` / ``const`` / ``cell``.
        label: vocabulary label used for GNN features (e.g. ``xor``,
            ``input``, ``nand``).
        name: full signal/instance name (when meaningful) or literal text.
    """

    __slots__ = ("node_id", "kind", "label", "name")

    def __init__(self, node_id, kind, label, name=None):
        self.node_id = node_id
        self.kind = kind
        self.label = label
        self.name = name

    def __repr__(self):
        descr = self.name if self.name else self.label
        return f"IRNode({self.node_id}, {self.kind}, {descr})"


class GraphIR:
    """A typed graph with dependency edges and a frontend level tag."""

    def __init__(self, name="graph", level=LEVEL_RTL):
        self.name = name
        self.level = level
        self.nodes = []
        self._succ = []           # adjacency: node -> list of dependencies
        self._pred = []           # reverse adjacency

    # -- construction ------------------------------------------------------
    def add_node(self, kind, label, name=None):
        """Append a node; returns its id."""
        node_id = len(self.nodes)
        self.nodes.append(IRNode(node_id, kind, label, name))
        self._succ.append([])
        self._pred.append([])
        return node_id

    def add_edge(self, src, dst):
        """Record that node ``src`` depends on node ``dst``."""
        if dst not in self._succ[src]:
            self._succ[src].append(dst)
            self._pred[dst].append(src)

    # -- queries -------------------------------------------------------------
    def __len__(self):
        return len(self.nodes)

    @property
    def num_edges(self):
        return sum(len(deps) for deps in self._succ)

    def successors(self, node_id):
        """Nodes that ``node_id`` depends on."""
        return list(self._succ[node_id])

    def predecessors(self, node_id):
        """Nodes that depend on ``node_id``."""
        return list(self._pred[node_id])

    def labels(self):
        """List of node labels in node-id order."""
        return [node.label for node in self.nodes]

    def label_counts(self):
        """Histogram of node labels."""
        counts = {}
        for node in self.nodes:
            counts[node.label] = counts.get(node.label, 0) + 1
        return counts

    # -- transforms ----------------------------------------------------------
    def reachable_from(self, seed_ids):
        """Set of node ids reachable from ``seed_ids`` along dependencies."""
        seen = set()
        stack = list(seed_ids)
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            stack.extend(self._succ[node_id])
        return seen

    def subgraph(self, keep_ids):
        """A new graph containing only ``keep_ids`` (edges restricted)."""
        keep = sorted(set(keep_ids))
        remap = {old: new for new, old in enumerate(keep)}
        out = GraphIR(self.name, self.level)
        for old in keep:
            node = self.nodes[old]
            out.add_node(node.kind, node.label, node.name)
        for old in keep:
            for dep in self._succ[old]:
                if dep in remap:
                    out.add_edge(remap[old], remap[dep])
        return out

    def edge_arrays(self):
        """``(src, dst)`` int64 arrays of every dependency edge.

        Edges come in node order (then insertion order), exported in one
        pass without a per-edge Python loop.
        """
        counts = [len(deps) for deps in self._succ]
        src = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        dst = np.fromiter(itertools.chain.from_iterable(self._succ),
                          dtype=np.int64, count=len(src))
        return src, dst

    def adjacency(self, symmetric=True, dtype=np.float64):
        """Sparse adjacency matrix (CSR), built from :meth:`edge_arrays`.

        Args:
            symmetric: union with the transpose, which is what the GCN
                propagation (Eq. 5) expects for undirected message passing.
        """
        from scipy import sparse  # deferred: scipy is slow to import

        n = len(self.nodes)
        rows, cols = self.edge_arrays()
        data = np.ones(len(rows), dtype=dtype)
        matrix = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
        if symmetric:
            matrix = matrix.maximum(matrix.T)
        return matrix

    def stats(self):
        """Summary dict used in reports and tests."""
        return {
            "name": self.name,
            "level": self.level,
            "nodes": len(self.nodes),
            "edges": self.num_edges,
        }

    def __repr__(self):
        return (f"{type(self).__name__}({self.name!r}, level={self.level!r}, "
                f"nodes={len(self.nodes)}, edges={self.num_edges})")
