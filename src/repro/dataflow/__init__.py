"""Data-flow graph extraction: elaboration, analysis, trimming.

:class:`repro.ir.frontends.RTLFrontend` runs these phases; the analyzer
builds an RTL-level :class:`~repro.ir.graphir.GraphIR` directly.
"""

from repro.dataflow.analyzer import (
    BINARY_OP_LABELS,
    DataflowAnalyzer,
    GATE_LABELS,
    UNARY_OP_LABELS,
    analyze,
)
from repro.dataflow.consteval import evaluate_const, try_evaluate_const, width_bits
from repro.dataflow.elaborate import Elaborator, elaborate, find_top_module
from repro.dataflow.trim import collapse_pass_through, prune_unreachable, trim

__all__ = [
    "BINARY_OP_LABELS",
    "UNARY_OP_LABELS",
    "GATE_LABELS",
    "DataflowAnalyzer",
    "analyze",
    "evaluate_const",
    "try_evaluate_const",
    "width_bits",
    "Elaborator",
    "elaborate",
    "find_top_module",
    "collapse_pass_through",
    "prune_unreachable",
    "trim",
]
