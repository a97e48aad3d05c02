"""Functional tests for the design families not covered in test_designs."""

from repro.dataflow import elaborate
from repro.designs import get_family
from repro.sim import RTLSimulator
from repro.verilog import parse_source


def rtl_sim_for(family_name, style, seed=0):
    family = get_family(family_name)
    variant = family.generate(seed=seed, style=style, rewrite=False)
    flat = elaborate(parse_source(variant.verilog), top=variant.top)
    return RTLSimulator(flat)


class TestArithmeticFamilies:
    def test_adder16(self):
        for style in get_family("adder16").style_names():
            sim = rtl_sim_for("adder16", style)
            for a, b, cin in [(65535, 1, 0), (30000, 30000, 1), (0, 0, 0)]:
                out = sim.evaluate({"a": a, "b": b, "cin": cin})
                total = a + b + cin
                assert out["sum"] == total & 0xFFFF, style
                assert out["cout"] == total >> 16, style

    def test_addsub8(self):
        for style in get_family("addsub8").style_names():
            sim = rtl_sim_for("addsub8", style)
            out = sim.evaluate({"a": 100, "b": 55, "mode": 0})
            assert out["y"] == 155
            out = sim.evaluate({"a": 100, "b": 55, "mode": 1})
            assert out["y"] == 45

    def test_absdiff8(self):
        for style in get_family("absdiff8").style_names():
            sim = rtl_sim_for("absdiff8", style)
            assert sim.evaluate({"a": 10, "b": 3})["d"] == 7
            assert sim.evaluate({"a": 3, "b": 10})["d"] == 7
            assert sim.evaluate({"a": 8, "b": 8})["d"] == 0

    def test_satadd8(self):
        for style in get_family("satadd8").style_names():
            sim = rtl_sim_for("satadd8", style)
            assert sim.evaluate({"a": 100, "b": 50})["y"] == 150
            assert sim.evaluate({"a": 200, "b": 100})["y"] == 255

    def test_mac8_accumulates(self):
        for style in get_family("mac8").style_names():
            sim = rtl_sim_for("mac8", style)
            sim.set_inputs({"clear": 1, "a": 0, "b": 0})
            sim.clock()
            assert sim.value("acc") == 0
            sim.set_inputs({"clear": 0, "a": 3, "b": 4})
            sim.clock()
            assert sim.value("acc") == 12, style
            sim.set_inputs({"a": 5, "b": 5})
            sim.clock()
            assert sim.value("acc") == 37, style


class TestLogicFamilies:
    def test_dec3to8(self):
        for style in get_family("dec3to8").style_names():
            sim = rtl_sim_for("dec3to8", style)
            for sel in range(8):
                assert sim.evaluate({"sel": sel, "en": 1})["y"] == 1 << sel
            assert sim.evaluate({"sel": 3, "en": 0})["y"] == 0

    def test_mux8_all_styles_agree(self):
        sims = [rtl_sim_for("mux8", s)
                for s in get_family("mux8").style_names()]
        for d in (0b10101010, 0b11110000, 0x5A):
            for sel in range(8):
                values = {s.evaluate({"d": d, "sel": sel})["y"]
                          for s in sims}
                assert values == {(d >> sel) & 1}

    def test_parity16_styles_agree(self):
        sims = [rtl_sim_for("parity16", s)
                for s in get_family("parity16").style_names()]
        for d in (0, 0xFFFF, 0x0001, 0xA5A5):
            odd = bin(d).count("1") & 1
            for sim in sims:
                out = sim.evaluate({"d": d})
                assert out["odd"] == odd
                assert out["even"] == 1 - odd

    def test_barrel8_both_directions(self):
        for style in get_family("barrel8").style_names():
            sim = rtl_sim_for("barrel8", style)
            for amount in range(8):
                left = sim.evaluate({"d": 0x81, "amount": amount, "dir": 0})
                right = sim.evaluate({"d": 0x81, "amount": amount, "dir": 1})
                assert left["y"] == (0x81 << amount) & 0xFF, style
                assert right["y"] == 0x81 >> amount, style

    def test_sevenseg_digits_distinct(self):
        for style in get_family("sevenseg").style_names():
            sim = rtl_sim_for("sevenseg", style)
            patterns = [sim.evaluate({"digit": d})["seg"] for d in range(16)]
            assert len(set(patterns)) == 16, style

    def test_sevenseg_case_reference(self):
        sim = rtl_sim_for("sevenseg", "case")
        assert sim.evaluate({"digit": 0})["seg"] == 0b0111111
        assert sim.evaluate({"digit": 8})["seg"] == 0b1111111

    def test_hamenc74_styles_agree(self):
        sims = [rtl_sim_for("hamenc74", s)
                for s in get_family("hamenc74").style_names()]
        for d in range(16):
            codes = {s.evaluate({"d": d})["code"] for s in sims}
            assert len(codes) == 1


class TestSequentialFamilies:
    def test_updown4(self):
        for style in get_family("updown4").style_names():
            sim = rtl_sim_for("updown4", style)
            sim.set_inputs({"rst": 1, "up": 1})
            sim.clock()
            sim.set_inputs({"rst": 0, "up": 1})
            sim.clock()
            sim.clock()
            assert sim.value("q") == 2, style
            sim.set_inputs({"up": 0})
            sim.clock()
            assert sim.value("q") == 1, style

    def test_shiftreg8(self):
        for style in get_family("shiftreg8").style_names():
            sim = rtl_sim_for("shiftreg8", style)
            sim.set_inputs({"rst": 1, "sin": 0})
            sim.clock()
            sim.set_inputs({"rst": 0})
            for bit in (1, 0, 1, 1):
                sim.set_inputs({"sin": bit})
                sim.clock()
            assert sim.value("q") == 0b1011, style

    def test_pwm8_duty_cycle(self):
        for style in get_family("pwm8").style_names():
            sim = rtl_sim_for("pwm8", style)
            sim.set_inputs({"rst": 1, "duty": 0})
            sim.clock()
            sim.set_inputs({"rst": 0, "duty": 64})
            highs = 0
            for _ in range(256):
                sim.clock()
                highs += sim.value("pulse")
            assert abs(highs - 64) <= 2, style  # ~25% duty

    def test_clkdiv_toggles(self):
        for style in get_family("clkdiv").style_names():
            sim = rtl_sim_for("clkdiv", style)
            sim.set_inputs({"rst": 1, "limit": 3})
            sim.clock()
            sim.set_inputs({"rst": 0})
            seen = set()
            previous = sim.value("tick")
            toggles = 0
            for _ in range(32):
                sim.clock()
                current = sim.value("tick")
                if current != previous:
                    toggles += 1
                previous = current
                seen.add(current)
            assert seen == {0, 1}, style
            assert toggles >= 4, style

    def test_debounce_filters_glitches(self):
        for style in get_family("debounce").style_names():
            sim = rtl_sim_for("debounce", style)
            sim.set_inputs({"rst": 1, "noisy": 0})
            sim.clock()
            sim.set_inputs({"rst": 0})
            # a single glitch must not flip the output
            sim.set_inputs({"noisy": 1})
            sim.clock()
            sim.set_inputs({"noisy": 0})
            for _ in range(20):
                sim.clock()
            assert sim.value("clean") == 0, style
            # a long press must
            sim.set_inputs({"noisy": 1})
            for _ in range(20):
                sim.clock()
            assert sim.value("clean") == 1, style

    def test_traffic_cycles_through_lights(self):
        for style in get_family("traffic").style_names():
            sim = rtl_sim_for("traffic", style)
            sim.set_inputs({"rst": 1})
            sim.clock()
            sim.set_inputs({"rst": 0})
            seen = set()
            for _ in range(60):
                sim.clock()
                seen.add(sim.value("lights"))
            assert seen == {0b100, 0b010, 0b001}, style


class TestCrcFamilies:
    def test_crc16_styles_agree(self):
        sims = [rtl_sim_for("crc16", s)
                for s in get_family("crc16").style_names()]
        for data, crc in [(0x00, 0x0000), (0x31, 0xFFFF), (0xA5, 0x1D0F)]:
            outs = {s.evaluate({"data": data, "crc_in": crc})["crc_out"]
                    for s in sims}
            assert len(outs) == 1

    def test_crc16_ccitt_reference(self):
        # CRC-16-CCITT of byte 0x00 with init 0x0000 is 0x0000.
        sim = rtl_sim_for("crc16", "loop")
        assert sim.evaluate({"data": 0, "crc_in": 0})["crc_out"] == 0
        # Single byte 'A' (0x41) with init 0xFFFF: known value 0x538D... use
        # a software model instead of a literature constant:
        def crc16_sw(byte, crc):
            crc ^= byte << 8
            for _ in range(8):
                crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1)
                crc &= 0xFFFF
            return crc
        for byte, init in [(0x41, 0xFFFF), (0xFF, 0x0000), (0x12, 0xABCD)]:
            assert sim.evaluate({"data": byte, "crc_in": init})["crc_out"] \
                == crc16_sw(byte, init)

    def test_crc8_software_model(self):
        def crc8_sw(byte, crc):
            crc ^= byte
            for _ in range(8):
                crc = ((crc << 1) ^ 0x07 if crc & 0x80 else crc << 1) & 0xFF
            return crc
        for style in get_family("crc8").style_names():
            sim = rtl_sim_for("crc8", style)
            for byte, init in [(0x41, 0x00), (0xFF, 0xFF), (0x5A, 0x12)]:
                assert sim.evaluate({"data": byte, "crc_in": init})["crc_out"] \
                    == crc8_sw(byte, init), style


class TestUartLoopback:
    def test_tx_shift_fsm_frames_correctly(self):
        sim = rtl_sim_for("rs232", "shift_fsm")
        sim.set_inputs({"rst": 1, "start": 0, "data": 0})
        sim.clock()
        sim.set_inputs({"rst": 0})
        assert sim.value("txd") == 1  # idle high
        sim.set_inputs({"start": 1, "data": 0b10100101})
        sim.clock()
        sim.set_inputs({"start": 0})
        bits = [sim.value("txd")]
        for _ in range(9):
            sim.clock()
            bits.append(sim.value("txd"))
        assert bits[0] == 0                      # start bit
        assert bits[1:9] == [1, 0, 1, 0, 0, 1, 0, 1]  # LSB first
        assert bits[9] == 1                      # stop bit
