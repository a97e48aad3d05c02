"""Multi-granularity subgraph chunks for partial-theft detection.

A whole-design embedding drowns out a stolen fraction of a netlist: the
cosine between a 500-gate host carrying 60 grafted gates and the 60-gate
victim is dominated by the host.  This module decomposes one
:class:`~repro.ir.graphir.GraphIR` into overlapping **chunks** — small
subgraphs embedded individually — so a stolen region matches a stored
region of its victim head-on, at full similarity.

Three complementary strategies (all deterministic, all pure functions of
the graph structure):

- **fanin cones** — everything an output signal or state element
  (DFF cell / ``reg`` signal) transitively depends on.  Cones follow the
  design's functional decomposition, so a thief lifting "the ALU" lifts
  a cone.
- **connected components** — weakly connected regions, when the design
  is not one blob.  A grafted block that is loosely wired into its host
  is (close to) a component.
- **sliding windows** — fixed-size windows over a deterministic
  topological order.  Grafted gates are appended after the host's in
  netlist order, so they cluster inside a few windows even when cones
  and components miss them.

Chunks below :attr:`ChunkConfig.min_nodes` or covering the whole graph
are dropped — a single-gate design produces **zero** chunks and behaves
exactly like a v3 single-row corpus.  Extraction order and node
numbering are fully deterministic (sorted iteration everywhere), so two
processes — or two machines — produce byte-identical chunk sets.

A chunk stays a node set of its design: its model inputs are the
design's prepared features and edges sliced to the chunk's members
(:func:`chunk_parts`), never a re-featurized subgraph copy.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.hw2vec import GraphSlice
from repro.ir.graphir import KIND_CELL, KIND_SIGNAL

#: Bump when the chunking strategy changes shape: stored chunk rows are
#: only reused / comparable when the version matches.
CHUNKS_VERSION = 1


@dataclass(frozen=True)
class ChunkConfig:
    """Tunables for :func:`extract_chunks`.

    The defaults are sized so that the tiny designs used in unit tests
    (a handful of nodes) produce no chunks at all, while realistic
    netlists (hundreds of gates) shatter into a few dozen overlapping
    regions.

    Attributes:
        window: nodes per sliding window over the topological order.
        stride: topological-order step between window starts.
        min_nodes: chunks smaller than this are dropped.
        max_chunks: hard cap per design (cones/components are kept
            first; windows are thinned evenly).
        cone_seeds: cap on fanin-cone seeds per design (evenly spaced
            over the sorted seed list when there are more).
    """

    window: int = 48
    stride: int = 24
    min_nodes: int = 10
    max_chunks: int = 24
    cone_seeds: int = 12

    def as_dict(self):
        return {
            "version": CHUNKS_VERSION,
            "window": int(self.window),
            "stride": int(self.stride),
            "min_nodes": int(self.min_nodes),
            "max_chunks": int(self.max_chunks),
            "cone_seeds": int(self.cone_seeds),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(window=int(data["window"]), stride=int(data["stride"]),
                   min_nodes=int(data["min_nodes"]),
                   max_chunks=int(data["max_chunks"]),
                   cone_seeds=int(data["cone_seeds"]))


def topological_order(graph):
    """Deterministic dependencies-first order over all nodes.

    Kahn's algorithm with a min-heap: among ready nodes the smallest id
    is emitted first, so the order is a pure function of the graph.
    Cycles (DFF feedback paths) are broken by force-emitting the
    smallest not-yet-emitted id, which keeps the order total and
    deterministic on cyclic graphs too.
    """
    n = len(graph)
    pending = [len(graph._succ[i]) for i in range(n)]
    emitted = [False] * n
    ready = [i for i in range(n) if pending[i] == 0]
    heapq.heapify(ready)
    order = []
    cursor = 0  # smallest id that might still be unemitted
    while len(order) < n:
        while ready and emitted[ready[0]]:
            heapq.heappop(ready)
        if not ready:
            while emitted[cursor]:
                cursor += 1
            ready = [cursor]
        node = heapq.heappop(ready)
        if emitted[node]:
            continue
        emitted[node] = True
        order.append(node)
        for pred in graph._pred[node]:
            pending[pred] -= 1
            if pending[pred] == 0 and not emitted[pred]:
                heapq.heappush(ready, pred)
    return order


def _is_state_node(node):
    """Output ports and sequential elements seed the fanin cones."""
    if node.kind == KIND_SIGNAL and node.label in ("output", "reg"):
        return True
    return node.kind == KIND_CELL and "dff" in node.label


def _thin(items, cap):
    """At most ``cap`` items, evenly spaced, order preserved."""
    if cap <= 0 or len(items) <= cap:
        return list(items)
    step = len(items) / cap
    return [items[int(i * step)] for i in range(cap)]


def _cone_chunks(graph, config):
    seeds = [node.node_id for node in graph.nodes if _is_state_node(node)]
    chunks = []
    for seed in _thin(seeds, config.cone_seeds):
        cone = graph.reachable_from([seed])
        node = graph.nodes[seed]
        label = node.name if node.name else f"{node.label}@{seed}"
        chunks.append((frozenset(cone), {"kind": "cone", "label": label}))
    return chunks


def _component_chunks(graph):
    """Weakly connected components (only useful when there are > 1)."""
    n = len(graph)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack, members = [start], []
        seen[start] = True
        while stack:
            node = stack.pop()
            members.append(node)
            for other in graph._succ[node] + graph._pred[node]:
                if not seen[other]:
                    seen[other] = True
                    stack.append(other)
        components.append(members)
    if len(components) <= 1:
        return []
    return [(frozenset(members),
             {"kind": "component", "label": f"cc{index}"})
            for index, members in enumerate(components)]


def _window_chunks(graph, config):
    """Sliding windows over the deterministic topological order."""
    n = len(graph)
    if n <= config.window:
        return []
    order = topological_order(graph)
    chunks = []
    start = 0
    while start < n:
        stop = min(start + config.window, n)
        if stop - start < config.min_nodes and chunks:
            # Fold a short tail into the preceding window instead of
            # emitting a sliver.
            break
        members = frozenset(order[start:stop])
        chunks.append((members, {"kind": "window",
                                 "label": f"topo[{start}:{stop}]",
                                 "span": [start, stop]}))
        if stop == n:
            break
        start += config.stride
    return chunks


def extract_chunks(graph, config=None):
    """Deterministic ``(members, region)`` chunk list for one graph.

    A chunk is a node set of ``graph``, not a copy of it: ``members`` is
    the sorted int64 array of its node ids.  Embedding slices the
    design's prepared arrays to those ids (:func:`chunk_parts`); callers
    that need the chunk as a graph build it with
    ``graph.subgraph(members.tolist())``.

    The region dict describes *where* the chunk came from — it is stored
    in the index metadata and surfaced as match evidence ("which region
    matched").  Every region carries ``kind``/``label``/``nodes``/
    ``frac`` (chunk size as a fraction of the design); window regions
    add their ``span`` in topological positions.

    Chunks are deduplicated by node-id set, dropped when smaller than
    ``config.min_nodes`` or equal to the whole graph, and capped at
    ``config.max_chunks`` (cones and components survive first).
    """
    config = config or ChunkConfig()
    n = len(graph)
    if n < config.min_nodes:
        return []
    candidates = (_cone_chunks(graph, config)
                  + _component_chunks(graph)
                  + _window_chunks(graph, config))
    seen_sets = set()
    kept = []
    for members, region in candidates:
        if len(members) < config.min_nodes or len(members) >= n:
            continue
        if members in seen_sets:
            continue
        seen_sets.add(members)
        kept.append((members, region))
    if len(kept) > config.max_chunks:
        priority = [c for c in kept if c[1]["kind"] != "window"]
        windows = [c for c in kept if c[1]["kind"] == "window"]
        priority = priority[:config.max_chunks]
        kept = priority + _thin(windows, config.max_chunks - len(priority))
    return [(np.fromiter(sorted(members), dtype=np.int64,
                         count=len(members)),
             dict(region, nodes=len(members),
                  frac=round(len(members) / n, 4)))
            for members, region in kept]


def chunk_parts(encoder, graph, chunks):
    """The embedding parts of one design: the design, then its chunks.

    The design is prepared once (``encoder.prepare``); each chunk is a
    :class:`~repro.core.hw2vec.GraphSlice` of that prepared graph, which
    ``encoder.prepare`` restricts to the chunk's members when the parts
    are embedded.  Ingest (stored chunk rows) and queries (suspect chunk
    parts) both build their parts here.
    """
    prepared = encoder.prepare(graph)
    return [prepared] + [GraphSlice(prepared, members)
                         for members, _ in chunks]
