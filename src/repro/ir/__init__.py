"""Unified graph IR: one representation between frontends and the model.

``GraphIR`` is the hand-off point of the architecture::

    frontends (dataflow / netlist)  ->  GraphIR  ->  featurizer  ->  encoder

The RTL dataflow analyzer builds GraphIR directly.  :func:`to_graphir`
adapts the other supported design object, a gate-level Netlist, into the
IR; :mod:`repro.ir.frontends` holds the level-selectable extraction
frontends, the one way Verilog becomes a graph.

This package root deliberately imports only dependency-free modules so the
frontends (which pull in the Verilog pipeline and synthesizer) never create
import cycles; access them as ``repro.ir.frontends``.
"""

from repro.ir.featurize import Featurizer
from repro.ir.graphir import (
    KIND_CELL,
    KIND_CONST,
    KIND_OP,
    KIND_SIGNAL,
    LEVEL_NETLIST,
    LEVEL_RTL,
    GraphIR,
    IRNode,
)


def to_graphir(graph):
    """Adapt ``graph`` to a :class:`GraphIR`.

    Accepts a GraphIR (returned as-is) or a gate-level
    :class:`~repro.netlist.netlist.Netlist` (lowered through
    :func:`~repro.netlist.to_ir.netlist_to_ir`).
    """
    if isinstance(graph, GraphIR):
        return graph
    from repro.netlist.netlist import Netlist

    if isinstance(graph, Netlist):
        from repro.netlist.to_ir import netlist_to_ir

        return netlist_to_ir(graph)
    raise TypeError(f"cannot adapt {type(graph).__name__} to GraphIR")


__all__ = [
    "Featurizer", "GraphIR", "IRNode", "to_graphir",
    "KIND_CELL", "KIND_CONST", "KIND_OP", "KIND_SIGNAL",
    "LEVEL_NETLIST", "LEVEL_RTL",
]
