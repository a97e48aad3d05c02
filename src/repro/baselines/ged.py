"""Greedy approximate graph edit distance.

Exact GED is NP-complete (the scalability wall §IV-F attributes to graph-
similarity methods); this greedy assignment approximation is the standard
practical compromise and is still orders of magnitude slower than a GNN
embedding comparison on large DFGs.
"""


def _node_signature(graph, node_id):
    node = graph.nodes[node_id]
    return (node.label, len(graph.successors(node_id)),
            len(graph.predecessors(node_id)))


def greedy_edit_distance(graph_a, graph_b):
    """Approximate node-level edit distance (lower = more similar)."""
    sig_a = [_node_signature(graph_a, i) for i in range(len(graph_a))]
    sig_b = [_node_signature(graph_b, i) for i in range(len(graph_b))]
    unmatched_b = {}
    for index, signature in enumerate(sig_b):
        unmatched_b.setdefault(signature, []).append(index)
    substitutions = 0
    matched = 0
    for signature in sig_a:
        bucket = unmatched_b.get(signature)
        if bucket:
            bucket.pop()
            matched += 1
        else:
            substitutions += 1
    deletions = len(sig_a) - matched - substitutions
    insertions = len(sig_b) - matched
    # Every unmatched node on either side costs one edit.
    return substitutions + max(deletions, 0) + max(insertions, 0)


def ged_similarity(graph_a, graph_b):
    """Normalized similarity in [0, 1] from the greedy edit distance."""
    distance = greedy_edit_distance(graph_a, graph_b)
    denominator = max(len(graph_a), len(graph_b), 1)
    return float(max(0.0, 1.0 - distance / denominator))
