"""Trim phase of the RTL flow: remove redundant and disconnected nodes.

Per the paper (§III-B): "the redundant nodes and disconnected subgraphs are
trimmed, and the final DFG is generated".  Concretely:

* collapse pass-through operation nodes (``buf`` and single-operand
  ``concat``) by rewiring their predecessors to their single dependency;
* drop every node not reachable from an output-signal root (unless the
  design has no outputs, in which case all driven signals act as roots).
"""

from repro.ir.graphir import KIND_OP, KIND_SIGNAL, LEVEL_RTL, GraphIR

_PASS_THROUGH_LABELS = frozenset({"buf", "concat", "uplus"})


def collapse_pass_through(graph):
    """Return a graph with single-child pass-through op nodes removed."""
    redirect = {}
    for node in graph.nodes:
        if node.kind != KIND_OP or node.label not in _PASS_THROUGH_LABELS:
            continue
        deps = graph.successors(node.node_id)
        if len(deps) == 1:
            redirect[node.node_id] = deps[0]

    def resolve(node_id):
        seen = set()
        while node_id in redirect:
            if node_id in seen:
                break
            seen.add(node_id)
            node_id = redirect[node_id]
        return node_id

    out = GraphIR(graph.name, level=LEVEL_RTL)
    remap = {}
    for node in graph.nodes:
        if node.node_id in redirect:
            continue
        remap[node.node_id] = out.add_node(node.kind, node.label, node.name)
    for node in graph.nodes:
        if node.node_id in redirect:
            continue
        for dep in graph.successors(node.node_id):
            target = resolve(dep)
            if target in remap and remap[target] != remap[node.node_id]:
                out.add_edge(remap[node.node_id], remap[target])
    return out


def prune_unreachable(graph):
    """Keep only nodes reachable from the output signals (the roots)."""
    roots = [n.node_id for n in graph.nodes
             if n.kind == KIND_SIGNAL and n.label == "output"]
    if not roots:
        # No declared outputs: treat every driven signal as a root so the
        # graph does not vanish (common in testbench-less fragments).
        roots = [n.node_id for n in graph.nodes
                 if n.kind == KIND_SIGNAL and graph.successors(n.node_id)]
    if not roots:
        return graph
    keep = graph.reachable_from(roots)
    if len(keep) == len(graph.nodes):
        return graph
    return graph.subgraph(keep)


def trim(graph):
    """Full trim pass: collapse pass-throughs, then prune unreachable."""
    return prune_unreachable(collapse_pass_through(graph))
