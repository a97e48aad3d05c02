"""Structural-Verilog writer for gate-level netlists.

The writer emits one flat module using gate primitives; ``mux`` cells
become ternary assigns (which the synthesizer lowers straight back to a
mux cell) and ``dff`` cells become nonblocking ``q <= d;`` assigns in
one native ``always @(posedge clk)`` block per clock, so the emitted
file needs no library modules, flows straight through the RTL
frontend, and re-synthesizes gate-for-gate: the Verilog frontend
(:func:`repro.synth.synthesize_verilog`) is its reader.
"""

from repro.errors import NetlistError
from repro.netlist.cells import DFF, PRIMITIVE_GATES
from repro.netlist.netlist import CONST0, CONST1


def _net_text(net):
    if net == CONST0:
        return "1'b0"
    if net == CONST1:
        return "1'b1"
    return net


def write_netlist(netlist):
    """Render a :class:`Netlist` as self-contained structural Verilog."""
    ports = [f"input {name}" for name in netlist.inputs]
    ports += [f"output {name}" for name in netlist.outputs]
    lines = [f"module {netlist.name} ({', '.join(ports)});"]
    io_nets = set(netlist.inputs) | set(netlist.outputs)
    flop_outputs = [g.output for g in netlist.gates if g.cell == DFF]
    internal = sorted(netlist.nets() - io_nets)
    registered = set(flop_outputs)
    for net in internal:
        if net not in registered:
            lines.append(f"  wire {net};")
    for net in flop_outputs:
        lines.append(f"  reg {net};")
    flops_by_clock = {}
    for gate in netlist.gates:
        if gate.cell in PRIMITIVE_GATES:
            args = ", ".join([_net_text(gate.output)]
                             + [_net_text(n) for n in gate.inputs])
            lines.append(f"  {gate.cell} {gate.name} ({args});")
        elif gate.cell == "mux":
            # A ternary assign, not a library-module instance: the
            # synthesizer lowers ternaries back to a single mux cell, so
            # write -> parse -> synthesize round-trips gate-for-gate (a
            # mux library module would be flattened into and/or/not
            # gates and round-tripped graphs would stop matching fresh
            # ones).
            d0, d1, sel = (_net_text(n) for n in gate.inputs)
            lines.append(f"  assign {_net_text(gate.output)} = "
                         f"{sel} ? {d1} : {d0};")
        elif gate.cell == DFF:
            # Collected into one native always block per clock: module
            # instances would be flattened with port-glue buffers on
            # re-synthesis, inflating round-tripped graphs.
            flops_by_clock.setdefault(gate.inputs[1], []).append(gate)
        else:
            raise NetlistError(f"cannot write cell {gate.cell!r}")
    for clock in sorted(flops_by_clock):
        lines.append(f"  always @(posedge {clock}) begin")
        for gate in flops_by_clock[clock]:
            lines.append(f"    {_net_text(gate.output)} <= "
                         f"{_net_text(gate.inputs[0])};")
        lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
