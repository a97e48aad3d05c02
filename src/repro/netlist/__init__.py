"""Gate-level netlist infrastructure: cells, container, builder, Verilog writer."""

from repro.netlist.cells import CELLS, DFF, PRIMITIVE_GATES, Cell, cell
from repro.netlist.netlist import (
    CONST0,
    CONST1,
    Gate,
    Netlist,
    NetlistBuilder,
)
from repro.netlist.verilog_io import write_netlist

__all__ = [
    "CELLS", "DFF", "PRIMITIVE_GATES", "Cell", "cell",
    "CONST0", "CONST1", "Gate", "Netlist", "NetlistBuilder",
    "write_netlist",
]
