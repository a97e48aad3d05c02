"""Tests for netlist container, cells, builder, and the Verilog writer."""

import pytest

from repro.errors import ElaborationError, NetlistError
from repro.netlist import (
    CONST1,
    DFF,
    Netlist,
    NetlistBuilder,
    cell,
    write_netlist,
)
from repro.sim import NetlistSimulator, check_netlists_equivalent
from repro.synth import synthesize_verilog


class TestCells:
    @pytest.mark.parametrize("name,inputs,expected", [
        ("and", [1, 1], 1), ("and", [1, 0], 0),
        ("or", [0, 0], 0), ("or", [1, 0], 1),
        ("xor", [1, 1], 0), ("xor", [1, 0], 1),
        ("xnor", [1, 1], 1),
        ("nand", [1, 1], 0), ("nor", [0, 0], 1),
        ("not", [1], 0), ("buf", [0], 0),
        ("mux", [1, 0, 0], 1), ("mux", [1, 0, 1], 0),
    ])
    def test_evaluation(self, name, inputs, expected):
        assert cell(name).evaluate(inputs) == expected

    def test_multi_input_gates(self):
        assert cell("and").evaluate([1, 1, 1, 1]) == 1
        assert cell("xor").evaluate([1, 1, 1]) == 1

    def test_arity_check(self):
        with pytest.raises(NetlistError):
            cell("not").check_arity(2)
        with pytest.raises(NetlistError):
            cell("mux").check_arity(2)

    def test_unknown_cell(self):
        with pytest.raises(NetlistError):
            cell("latch")


class TestNetlistStructure:
    def half_adder(self):
        builder = NetlistBuilder("ha")
        builder.inputs("a", "b")
        builder.outputs("s", "c")
        builder.xor_("a", "b", out="s")
        builder.and_("a", "b", out="c")
        return builder.build()

    def test_validate_passes(self):
        self.half_adder()

    def test_duplicate_input_rejected(self):
        net = Netlist("m")
        net.add_input("a")
        with pytest.raises(NetlistError):
            net.add_input("a")

    def test_multiple_drivers_rejected(self):
        net = Netlist("m", inputs=["a"], outputs=["y"])
        net.add_gate("buf", "y", ["a"])
        net.add_gate("not", "y", ["a"])
        with pytest.raises(NetlistError):
            net.validate()

    def test_undriven_net_rejected(self):
        net = Netlist("m", inputs=["a"], outputs=["y"])
        net.add_gate("and", "y", ["a", "ghost"])
        with pytest.raises(NetlistError):
            net.validate()

    def test_driven_input_rejected(self):
        net = Netlist("m", inputs=["a"], outputs=["y"])
        net.add_gate("buf", "a", ["a"])
        net.add_gate("buf", "y", ["a"])
        with pytest.raises(NetlistError):
            net.validate()

    def test_levelize_orders_dependencies(self):
        netlist = self.half_adder()
        order = netlist.levelize()
        assert [g.cell for g in order] == ["xor", "and"]

    def test_levelize_detects_cycle(self):
        net = Netlist("m", inputs=["a"], outputs=["y"])
        net.add_gate("and", "x", ["a", "y"])
        net.add_gate("buf", "y", ["x"])
        with pytest.raises(NetlistError):
            net.levelize()

    def test_dff_breaks_cycle(self):
        builder = NetlistBuilder("t")
        builder.inputs("clk")
        builder.outputs("q")
        builder.not_("q", out="nq")
        builder.dff_("nq", "clk", out="q")
        netlist = builder.build()
        netlist.levelize()  # must not raise: q comes from a register

    def test_stats(self):
        stats = self.half_adder().stats()
        assert stats["gates"] == 2
        assert stats["cells"] == {"xor": 1, "and": 1}

    def test_copy_is_deep(self):
        original = self.half_adder()
        clone = original.copy()
        clone.gates[0].inputs[0] = "zzz"
        assert original.gates[0].inputs[0] == "a"

    def test_dff_needs_two_inputs(self):
        net = Netlist("m")
        with pytest.raises(NetlistError):
            net.add_gate(DFF, "q", ["d"])

    def test_clock_recorded(self):
        builder = NetlistBuilder("t")
        builder.inputs("clk", "d")
        builder.outputs("q")
        builder.dff_("d", "clk", out="q")
        assert "clk" in builder.netlist.clocks


class TestBuilderHelpers:
    def test_fresh_nets_unique(self):
        builder = NetlistBuilder("m")
        names = {builder.net() for _ in range(100)}
        assert len(names) == 100

    def test_ripple_adder_adds(self):
        builder = NetlistBuilder("add4")
        a = builder.input_bus("a", 4)
        b = builder.input_bus("b", 4)
        sums, carry = builder.ripple_adder(a, b)
        for i, s in enumerate(sums):
            builder.buf_(s, out=builder.netlist.add_output(f"s_{i}"))
        builder.buf_(carry, out=builder.netlist.add_output("cout"))
        sim = NetlistSimulator(builder.build())
        for x, y in [(3, 5), (15, 1), (9, 9), (0, 0)]:
            stim = {}
            stim.update(sim.drive_bus("a", 4, x))
            stim.update(sim.drive_bus("b", 4, y))
            sim.set_inputs(stim)
            total = sim.read_bus("s", 4) | (sim.value("cout") << 4)
            assert total == x + y

    def test_mux_bus(self):
        builder = NetlistBuilder("m")
        a = builder.input_bus("a", 2)
        b = builder.input_bus("b", 2)
        builder.inputs("sel")
        outs = builder.mux_bus(a, b, "sel")
        for i, net in enumerate(outs):
            builder.buf_(net, out=builder.netlist.add_output(f"y_{i}"))
        sim = NetlistSimulator(builder.build())
        sim.set_inputs({"a_0": 1, "a_1": 0, "b_0": 0, "b_1": 1, "sel": 0})
        assert sim.read_bus("y", 2) == 0b01
        sim.set_inputs({"sel": 1})
        assert sim.read_bus("y", 2) == 0b10

    def test_adder_width_mismatch(self):
        builder = NetlistBuilder("m")
        with pytest.raises(NetlistError):
            builder.ripple_adder(["a"], ["b", "c"])


class TestVerilogIO:
    def full_netlist(self):
        builder = NetlistBuilder("rt")
        builder.inputs("clk", "a", "b", "sel")
        builder.outputs("q", "y")
        t = builder.xor_(a="a", b="b") if False else builder.xor_("a", "b")
        m = builder.mux_("a", t, "sel")
        builder.dff_(m, "clk", out="q")
        builder.or_("a", CONST1, out="y")
        return builder.build()

    def test_write_is_self_contained(self):
        text = write_netlist(self.full_netlist())
        # Muxes are ternary assigns and flops native always blocks (both
        # re-synthesize to the original cells); no library modules.
        assert " ? " in text
        assert "always @(posedge" in text
        assert "MUX2" not in text and "DFF_POS" not in text
        assert "1'b1" in text

    def test_roundtrip_preserves_behavior(self):
        original = self.full_netlist()
        recovered = synthesize_verilog(write_netlist(original))
        report = check_netlists_equivalent(original, recovered, vectors=32)
        assert report.equivalent

    def test_roundtrip_preserves_structure(self):
        original = self.full_netlist()
        recovered = synthesize_verilog(write_netlist(original))
        assert recovered.stats()["cells"] == original.stats()["cells"]
        assert set(recovered.inputs) == set(original.inputs)

    def test_written_netlist_flows_through_dfg_pipeline(self):
        from repro.ir.frontends import get_frontend
        graph = get_frontend("rtl").extract(write_netlist(self.full_netlist()))
        assert len(graph) > 5
        labels = set(graph.labels())
        assert "dff" in labels

    def test_reader_rejects_unknown_submodule(self):
        with pytest.raises(ElaborationError, match="'WEIRD'"):
            synthesize_verilog("module m(input a, output y); "
                               "WEIRD u (.x(a), .y(y)); endmodule")
