"""Structural-Verilog writer/reader for gate-level netlists.

The writer emits one flat module using gate primitives; ``mux`` cells
become ternary assigns (which the synthesizer lowers straight back to a
mux cell) and ``dff`` cells become nonblocking ``q <= d;`` assigns in
one native ``always @(posedge clk)`` block per clock, so the emitted
file needs no library modules, flows straight through the DFG
pipeline, and re-synthesizes gate-for-gate.  The reader also accepts
the retired ``MUX2`` and ``DFF_POS`` library-instance forms older files
used for mux and flop cells.
"""

from repro.errors import NetlistError
from repro.netlist.cells import DFF, PRIMITIVE_GATES
from repro.netlist.netlist import CONST0, CONST1, Gate, Netlist
from repro.verilog import ast_nodes as ast
from repro.verilog.parser import parse

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


def _expr_net(expr):
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.BasedConst):
        return CONST1 if expr.value else CONST0
    if isinstance(expr, ast.IntConst):
        return CONST1 if expr.value else CONST0
    raise NetlistError(f"netlist reader expects plain nets, got {expr}")


def read_netlist(text, name=None):
    """Parse structural Verilog (as written by :func:`write_netlist`).

    Only single-bit nets, gate primitives, ternary mux assigns,
    single-clock ``always @(posedge clk)`` flop blocks, and the retired
    MUX2/DFF_POS library modules are accepted.
    """
    source = parse(text)
    modules = {m.name: m for m in source.modules}
    candidates = [m for m in source.modules
                  if m.name not in ("MUX2", "DFF_POS")]
    if name is not None:
        if name not in modules:
            raise NetlistError(f"module {name!r} not found")
        module = modules[name]
    elif len(candidates) == 1:
        module = candidates[0]
    else:
        raise NetlistError("expected exactly one netlist module")

    netlist = Netlist(module.name)
    for port in module.ports:
        if port.width is not None:
            raise NetlistError(f"port {port.name!r} is a bus; flatten first")
        if port.direction == "input":
            netlist.add_input(port.name)
        else:
            netlist.add_output(port.name)
    for item in module.items:
        if isinstance(item, ast.NetDecl):
            continue
        if isinstance(item, ast.Assign):
            # The writer's mux form: ``assign y = sel ? d1 : d0;``.
            if not isinstance(item.rhs, ast.Ternary):
                raise NetlistError(
                    f"netlist reader expects only ternary assigns, "
                    f"got {item.rhs}")
            netlist.add_gate("mux", _expr_net(item.lhs),
                             [_expr_net(item.rhs.false_value),
                              _expr_net(item.rhs.true_value),
                              _expr_net(item.rhs.cond)])
        elif isinstance(item, ast.Always):
            # The writer's flop form: one always block per clock of
            # plain ``q <= d;`` nonblocking assigns.
            if (len(item.sens_list) != 1
                    or item.sens_list[0].edge != "posedge"):
                raise NetlistError("netlist reader expects a single "
                                   "posedge clock per always block")
            clock = _expr_net(item.sens_list[0].signal)
            statements = (item.statement.statements
                          if isinstance(item.statement, ast.Block)
                          else [item.statement])
            for statement in statements:
                if not isinstance(statement, ast.NonblockingAssign):
                    raise NetlistError("netlist reader expects only "
                                       "nonblocking flop assigns")
                netlist.add_gate(DFF, _expr_net(statement.lhs),
                                 [_expr_net(statement.rhs), clock])
        elif isinstance(item, ast.GateInstance):
            output = _expr_net(item.args[0])
            inputs = [_expr_net(a) for a in item.args[1:]]
            netlist.add_gate(item.gate, output, inputs, name=item.name)
        elif isinstance(item, ast.ModuleInstance):
            conns = {c.port: _expr_net(c.expr) for c in item.connections}
            if item.module == "MUX2":
                netlist.add_gate("mux", conns["y"],
                                 [conns["d0"], conns["d1"], conns["sel"]],
                                 name=item.name)
            elif item.module == "DFF_POS":
                netlist.add_gate(DFF, conns["q"], [conns["d"], conns["clk"]],
                                 name=item.name)
            else:
                raise NetlistError(f"unknown library module {item.module!r}")
        else:
            raise NetlistError(
                f"unexpected item {type(item).__name__} in netlist module")
    netlist.validate()
    return netlist
