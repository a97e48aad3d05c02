"""Gate-level netlist container and builder.

A :class:`Netlist` is a flat network of single-bit nets connected by gates
from :mod:`repro.netlist.cells` plus D flip-flops.  It can be levelized for
simulation, written to structural Verilog, and read back by the Verilog
front-end.
"""

from dataclasses import dataclass, field

from repro.errors import NetlistError
from repro.netlist.cells import DFF, cell

#: Reserved constant nets (driven to fixed values by the simulator).
CONST0 = "1'b0"
CONST1 = "1'b1"


@dataclass
class Gate:
    """One gate instance: ``output = cell(inputs)``.

    For DFFs, ``inputs`` is ``[d, clk]`` and ``output`` is q.
    """

    cell: str
    name: str
    output: str
    inputs: list


@dataclass
class Netlist:
    """A flat single-bit gate-level netlist."""

    name: str
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    gates: list = field(default_factory=list)
    clocks: list = field(default_factory=list)

    # -- construction ------------------------------------------------------
    def add_input(self, net):
        if net in self.inputs:
            raise NetlistError(f"duplicate input {net!r}")
        self.inputs.append(net)
        return net

    def add_output(self, net):
        if net in self.outputs:
            raise NetlistError(f"duplicate output {net!r}")
        self.outputs.append(net)
        return net

    def add_gate(self, cell_name, output, inputs, name=None):
        """Add one gate; returns its output net name."""
        inputs = list(inputs)
        if cell_name == DFF:
            if len(inputs) != 2:
                raise NetlistError("dff needs inputs [d, clk]")
            clk = inputs[1]
            if clk not in self.clocks:
                self.clocks.append(clk)
        else:
            cell(cell_name).check_arity(len(inputs))
        if name is None:
            name = f"g{len(self.gates)}"
        self.gates.append(Gate(cell_name, name, output, inputs))
        return output

    # -- structure queries --------------------------------------------------
    @property
    def num_gates(self):
        return len(self.gates)

    def nets(self):
        """All net names appearing anywhere in the netlist."""
        names = set(self.inputs) | set(self.outputs)
        for gate in self.gates:
            names.add(gate.output)
            names.update(gate.inputs)
        names.discard(CONST0)
        names.discard(CONST1)
        return names

    def drivers(self):
        """net -> driving Gate (inputs and constants have no driver)."""
        driver_map = {}
        for gate in self.gates:
            if gate.output in driver_map:
                raise NetlistError(f"net {gate.output!r} has multiple drivers")
            driver_map[gate.output] = gate
        return driver_map

    def readers(self):
        """net -> list of ``(gate, pin_index)`` pairs reading it.

        Primary outputs are not readers; combine with ``outputs`` when a
        transform needs the full fanout of a net (the retiming and
        Trojan attack stages do).
        """
        reader_map = {}
        for gate in self.gates:
            for pin, net in enumerate(gate.inputs):
                reader_map.setdefault(net, []).append((gate, pin))
        return reader_map

    def validate(self):
        """Check structural sanity; raises NetlistError on problems."""
        driver_map = self.drivers()
        driven_inputs = set(self.inputs) & set(driver_map)
        if driven_inputs:
            raise NetlistError(f"primary inputs driven: {sorted(driven_inputs)}")
        known = (set(self.inputs) | set(driver_map)
                 | {CONST0, CONST1} | set(self.clocks))
        for gate in self.gates:
            for net in gate.inputs:
                if net not in known:
                    raise NetlistError(
                        f"gate {gate.name!r} reads undriven net {net!r}")
        for net in self.outputs:
            if net not in known:
                raise NetlistError(f"output {net!r} is undriven")
        return True

    def is_combinational(self):
        return not any(gate.cell == DFF for gate in self.gates)

    def levelize(self):
        """Topologically order combinational gates (DFF outputs are sources).

        Returns:
            list of gates in evaluation order.

        Raises:
            NetlistError: on a combinational cycle.
        """
        order = []
        ready = set(self.inputs) | {CONST0, CONST1} | set(self.clocks)
        for gate in self.gates:
            if gate.cell == DFF:
                ready.add(gate.output)
        pending = [g for g in self.gates if g.cell != DFF]
        while pending:
            progressed = False
            remaining = []
            for gate in pending:
                if all(net in ready for net in gate.inputs):
                    order.append(gate)
                    ready.add(gate.output)
                    progressed = True
                else:
                    remaining.append(gate)
            if not progressed:
                cyclic = sorted(g.name for g in remaining)[:5]
                raise NetlistError(f"combinational cycle near gates {cyclic}")
            pending = remaining
        return order

    def stats(self):
        """Gate-count summary by cell type."""
        counts = {}
        for gate in self.gates:
            counts[gate.cell] = counts.get(gate.cell, 0) + 1
        return {
            "name": self.name,
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": len(self.gates),
            "cells": counts,
        }

    def copy(self, name=None):
        """Deep copy (gates are re-created)."""
        out = Netlist(name or self.name, list(self.inputs),
                      list(self.outputs), clocks=list(self.clocks))
        out.gates = [Gate(g.cell, g.name, g.output, list(g.inputs))
                     for g in self.gates]
        return out


class NetlistBuilder:
    """Fluent helper for constructing netlists programmatically.

    Fresh intermediate nets are generated with :meth:`net`; gate helpers
    (:meth:`and_`, :meth:`xor_`...) create the net, add the gate, and return
    the net name, so expressions compose naturally::

        s = b.xor_(a, b.xor_(x, y))
    """

    def __init__(self, name, prefix="n"):
        self.netlist = Netlist(name)
        self._prefix = prefix
        self._counter = 0
        self._reserved = set()

    def reserve(self, names):
        """Mark net names as taken so :meth:`net` never hands them out.

        The synthesizer reserves every declared signal (and its blasted
        ``name_i`` bits) up front: structural sources may already contain
        wires named like the builder's fresh nets (``xor_0``, ``and_3``
        ...), e.g. when re-synthesizing a netlist this builder produced.
        """
        self._reserved.update(names)

    def is_reserved(self, name):
        """Whether ``name`` was reserved (i.e. is a declared signal)."""
        return name in self._reserved

    def net(self, hint=None):
        """A fresh unique net name."""
        base = hint if hint else self._prefix
        name = f"{base}_{self._counter}"
        self._counter += 1
        while name in self._reserved:
            name = f"{base}_{self._counter}"
            self._counter += 1
        return name

    def inputs(self, *names):
        for name in names:
            self.netlist.add_input(name)
        return list(names)

    def input_bus(self, base, width):
        """Declare ``width`` input bits named ``base_0 .. base_{w-1}``."""
        return [self.netlist.add_input(f"{base}_{i}") for i in range(width)]

    def outputs(self, *names):
        for name in names:
            self.netlist.add_output(name)
        return list(names)

    def output_bus(self, base, width):
        return [self.netlist.add_output(f"{base}_{i}") for i in range(width)]

    def gate(self, cell_name, inputs, output=None):
        output = output if output is not None else self.net(cell_name)
        return self.netlist.add_gate(cell_name, output, inputs)

    def and_(self, *ins, out=None):
        return self.gate("and", list(ins), out)

    def or_(self, *ins, out=None):
        return self.gate("or", list(ins), out)

    def xor_(self, *ins, out=None):
        return self.gate("xor", list(ins), out)

    def xnor_(self, *ins, out=None):
        return self.gate("xnor", list(ins), out)

    def nand_(self, *ins, out=None):
        return self.gate("nand", list(ins), out)

    def nor_(self, *ins, out=None):
        return self.gate("nor", list(ins), out)

    def not_(self, a, out=None):
        return self.gate("not", [a], out)

    def buf_(self, a, out=None):
        return self.gate("buf", [a], out)

    def mux_(self, d0, d1, sel, out=None):
        return self.gate("mux", [d0, d1, sel], out)

    def dff_(self, d, clk, out=None):
        return self.gate(DFF, [d, clk], out)

    # -- word-level helpers (lists of nets, LSB first) --------------------
    def ripple_adder(self, a_bits, b_bits, carry_in=CONST0):
        """Full ripple-carry adder; returns (sum_bits, carry_out)."""
        if len(a_bits) != len(b_bits):
            raise NetlistError("adder operand widths differ")
        carry = carry_in
        sums = []
        for a, b in zip(a_bits, b_bits):
            axb = self.xor_(a, b)
            sums.append(self.xor_(axb, carry))
            carry = self.or_(self.and_(a, b), self.and_(axb, carry))
        return sums, carry

    def mux_bus(self, d0_bits, d1_bits, sel):
        return [self.mux_(d0, d1, sel) for d0, d1 in zip(d0_bits, d1_bits)]

    def build(self):
        """Validate and return the finished netlist."""
        self.netlist.validate()
        return self.netlist
