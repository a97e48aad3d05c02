"""Design-family tests: generation, DFG extraction, functional checks."""

import pytest

from repro.dataflow import elaborate
from repro.designs import (
    SYNTHESIZABLE_FAMILIES,
    all_families,
    family_names,
    generate_corpus,
    get_family,
)
from repro.errors import DatasetError
from repro.ir.frontends import get_frontend
from repro.sim import RTLSimulator, check_netlists_equivalent
from repro.synth import synthesize_verilog
from repro.verilog import parse_source


def rtl_sim_for(family_name, style=None, seed=0):
    family = get_family(family_name)
    variant = family.generate(seed=seed, style=style, rewrite=False)
    flat = elaborate(parse_source(variant.verilog), top=variant.top)
    return RTLSimulator(flat)


class TestRegistry:
    def test_enough_families(self):
        # The paper's corpus has 50 distinct designs; ours is of the same
        # order of magnitude.
        assert len(family_names()) >= 35

    def test_unknown_family_raises(self):
        with pytest.raises(DatasetError):
            get_family("nonexistent")

    def test_every_family_has_two_styles(self):
        for family in all_families():
            assert len(family.style_names()) >= 2, family.name

    def test_generate_unknown_style(self):
        with pytest.raises(DatasetError):
            get_family("adder8").generate(style="quantum")


class TestGenerationAndDFG:
    @pytest.mark.parametrize("name", family_names())
    def test_all_styles_produce_dfgs(self, name):
        family = get_family(name)
        for style in family.style_names():
            variant = family.generate(seed=0, style=style, rewrite=False)
            graph = get_frontend("rtl").extract(variant.verilog,
                                                top=variant.top)
            assert len(graph) > 3, f"{name}/{style} produced a tiny DFG"
            assert "output" in graph.labels(), f"{name}/{style} has no outputs"

    @pytest.mark.parametrize("name", ["adder8", "alu", "mips_single"])
    def test_rewritten_variants_differ_textually(self, name):
        family = get_family(name)
        first = family.generate(seed=1, style=family.style_names()[0])
        second = family.generate(seed=2, style=family.style_names()[0])
        assert first.verilog != second.verilog

    def test_variants_cycle_styles(self):
        family = get_family("adder8")
        variants = family.variants(6, seed=0)
        styles = {v.style for v in variants}
        assert styles == set(family.style_names())

    def test_corpus_generation(self):
        corpus = generate_corpus(families=["adder8", "cmp8"],
                                 instances_per_design=3, seed=0)
        assert len(corpus) == 6
        assert {v.design for v in corpus} == {"adder8", "cmp8"}


class TestFunctionalCorrectness:
    """Each family style must implement the documented function."""

    def test_adder8_styles_agree(self):
        family = get_family("adder8")
        for style in family.style_names():
            sim = rtl_sim_for("adder8", style)
            for a, b, cin in [(0, 0, 0), (255, 1, 0), (100, 55, 1),
                              (170, 85, 1)]:
                out = sim.evaluate({"a": a, "b": b, "cin": cin})
                total = a + b + cin
                assert out["sum"] == total & 0xFF, style
                assert out["cout"] == total >> 8, style

    def test_mult4_styles_agree(self):
        for style in get_family("mult4").style_names():
            sim = rtl_sim_for("mult4", style)
            for a in (0, 3, 9, 15):
                for b in (0, 7, 15):
                    assert sim.evaluate({"a": a, "b": b})["p"] == a * b

    def test_cmp8_styles_agree(self):
        for style in get_family("cmp8").style_names():
            sim = rtl_sim_for("cmp8", style)
            for a, b in [(1, 2), (2, 1), (7, 7), (255, 0)]:
                out = sim.evaluate({"a": a, "b": b})
                assert out["lt"] == int(a < b), style
                assert out["eq"] == int(a == b), style
                assert out["gt"] == int(a > b), style

    def test_prienc8_styles_agree(self):
        for style in get_family("prienc8").style_names():
            sim = rtl_sim_for("prienc8", style)
            assert sim.evaluate({"req": 0})["valid"] == 0
            for bit in range(8):
                out = sim.evaluate({"req": 1 << bit})
                assert out["idx"] == bit, style
                assert out["valid"] == 1
            out = sim.evaluate({"req": 0b10000100})
            assert out["idx"] == 7, style

    def test_bin2gray_and_back(self):
        to_gray = rtl_sim_for("bin2gray8", "shift")
        to_bin = rtl_sim_for("gray2bin8", "prefix")
        for value in (0, 1, 77, 128, 255):
            gray = to_gray.evaluate({"bin": value})["gray"]
            assert gray == value ^ (value >> 1)
            assert to_bin.evaluate({"gray": gray})["bin"] == value

    def test_popcount8(self):
        for style in get_family("popcount8").style_names():
            sim = rtl_sim_for("popcount8", style)
            for value in (0, 0xFF, 0b1010_1010, 0b0001_0000):
                assert sim.evaluate({"d": value})["count"] == \
                    bin(value).count("1"), style

    def test_counter8_counts(self):
        for style in get_family("counter8").style_names():
            sim = rtl_sim_for("counter8", style)
            sim.set_inputs({"rst": 1, "en": 0})
            sim.clock()
            assert sim.value("q") == 0
            sim.set_inputs({"rst": 0, "en": 1})
            for expected in (1, 2, 3):
                sim.clock()
                assert sim.value("q") == expected, style
            sim.set_inputs({"en": 0})
            sim.clock()
            assert sim.value("q") == 3

    def test_lfsr8_styles_agree_and_cycle(self):
        sims = [rtl_sim_for("lfsr8", s)
                for s in get_family("lfsr8").style_names()]
        for sim in sims:
            sim.set_inputs({"rst": 1})
            sim.clock()
            sim.set_inputs({"rst": 0})
        states = []
        for _ in range(20):
            for sim in sims:
                sim.clock()
            values = {sim.value("state") for sim in sims}
            assert len(values) == 1  # all styles track each other
            states.append(values.pop())
        assert len(set(states)) > 10  # long period
        assert 0 not in states        # LFSR never reaches all-zero

    def test_crc8_styles_agree(self):
        sims = [rtl_sim_for("crc8", s)
                for s in get_family("crc8").style_names()]
        for data, crc_in in [(0x00, 0x00), (0xFF, 0x00), (0x31, 0xA5)]:
            results = {s.evaluate({"data": data, "crc_in": crc_in})["crc_out"]
                       for s in sims}
            assert len(results) == 1

    def test_crc8_known_vector(self):
        # CRC-8 (poly 0x07, init 0) of single byte 0x00 is 0x00.
        sim = rtl_sim_for("crc8", "loop")
        assert sim.evaluate({"data": 0, "crc_in": 0})["crc_out"] == 0

    def test_hamming_roundtrip_with_error(self):
        encoder = rtl_sim_for("hamenc74", "explicit")
        decoder = rtl_sim_for("hamdec74", "case_fix")
        for data in range(16):
            code = encoder.evaluate({"d": data})["code"]
            out = decoder.evaluate({"code": code})
            assert out["d"] == data
            assert out["err"] == 0
            for bit in range(7):
                corrupted = code ^ (1 << bit)
                fixed = decoder.evaluate({"code": corrupted})
                assert fixed["d"] == data, f"data={data} bit={bit}"
                assert fixed["err"] == 1

    def test_fifo_push_pop(self):
        for style in get_family("fifo4x8").style_names():
            sim = rtl_sim_for("fifo4x8", style)
            sim.set_inputs({"rst": 1, "push": 0, "pop": 0, "din": 0})
            sim.clock()
            sim.set_inputs({"rst": 0})
            assert sim.value("empty") == 1
            for value in (11, 22, 33):
                sim.set_inputs({"push": 1, "pop": 0, "din": value})
                sim.clock()
            sim.set_inputs({"push": 0})
            assert sim.value("empty") == 0
            seen = []
            for _ in range(3):
                seen.append(sim.value("dout"))
                sim.set_inputs({"pop": 1})
                sim.clock()
                sim.set_inputs({"pop": 0})
            assert seen == [11, 22, 33], style
            assert sim.value("empty") == 1

    def test_vending_machine_vends_at_twenty(self):
        for style in get_family("vending").style_names():
            sim = rtl_sim_for("vending", style)
            sim.set_inputs({"rst": 1, "nickel": 0, "dime": 0})
            sim.clock()
            sim.set_inputs({"rst": 0})
            for _ in range(2):
                sim.set_inputs({"dime": 1, "nickel": 0})
                sim.clock()
            assert sim.value("vend") == 1, style

    def test_seqdet_detects_1011(self):
        for style in get_family("seqdet").style_names():
            sim = rtl_sim_for("seqdet", style)
            sim.set_inputs({"rst": 1, "bit_in": 0})
            sim.clock()
            sim.set_inputs({"rst": 0})
            hits = []
            for bit in [1, 0, 1, 1, 0, 1, 1]:
                sim.set_inputs({"bit_in": bit})
                sim.clock()
                hits.append(sim.value("hit"))
            assert hits[3] == 1, style      # ...1011 just completed
            assert sum(hits) >= 1

    def test_aes_round_mixes_key(self):
        for style in get_family("aes").style_names():
            sim = rtl_sim_for("aes", style)
            out_zero = sim.evaluate({"state": 0x1234, "key": 0x0000})
            out_key = sim.evaluate({"state": 0x1234, "key": 0xFFFF})
            assert out_zero["state_next"] ^ out_key["state_next"] == 0xFFFF

    def test_aes_styles_agree(self):
        styles = get_family("aes").style_names()
        sims = [rtl_sim_for("aes", s) for s in styles]
        for state, key in [(0, 0), (0xFFFF, 0x1234), (0xA5A5, 0x5A5A)]:
            outs = {s.evaluate({"state": state, "key": key})["state_next"]
                    for s in sims}
            assert len(outs) == 1

    def test_fpa_adds_simple_numbers(self):
        def encode(sign, exponent, mantissa):
            return (sign << 15) | (exponent << 10) | mantissa

        for style in get_family("fpa").style_names():
            sim = rtl_sim_for("fpa", style)
            one = encode(0, 15, 0)        # 1.0
            two = encode(0, 16, 0)        # 2.0
            out = sim.evaluate({"x": one, "y": one})
            assert out["z"] == two, style  # 1.0 + 1.0 = 2.0
            out = sim.evaluate({"x": two, "y": one})
            three = encode(0, 16, 0b1000000000)  # 1.5 * 2^1
            assert out["z"] == three, style

    def test_mips_families_execute_program(self):
        """All MIPS variants must run their ROM without dying."""
        for name in ("mips_single", "mips_multi", "mips_pipeline"):
            family = get_family(name)
            variant = family.generate(seed=0, style=family.style_names()[0],
                                      rewrite=False)
            flat = elaborate(parse_source(variant.verilog), top=variant.top)
            sim = RTLSimulator(flat)
            sim.set_inputs({"rst": 1})
            sim.clock()
            sim.set_inputs({"rst": 0})
            pcs = set()
            for _ in range(40):
                sim.clock()
                pcs.add(sim.value("pc_out"))
            assert len(pcs) > 1, f"{name}: PC never advanced"

    def test_mips_contains_alu_module(self):
        """Table II case 3 requires the ALU to be a real sub-block."""
        for name in ("mips_single", "mips_multi", "mips_pipeline"):
            family = get_family(name)
            variant = family.generate(seed=0, rewrite=False)
            assert "module mips_alu" in variant.verilog
        alu = get_family("alu").generate(seed=0, rewrite=False)
        assert alu.top == "mips_alu"


class TestSynthesizableFamilies:
    @pytest.mark.parametrize("name", sorted(SYNTHESIZABLE_FAMILIES))
    def test_family_synthesizes(self, name):
        family = get_family(name)
        variant = family.generate(seed=0, rewrite=False)
        netlist = synthesize_verilog(variant.verilog, top=variant.top)
        assert netlist.num_gates > 0

    def test_styles_synthesize_to_equivalent_netlists(self):
        """Different styles of one design are truly the same hardware."""
        for name in ("adder8", "mult4", "cmp8", "barrel8"):
            family = get_family(name)
            netlists = []
            for style in family.style_names():
                variant = family.generate(seed=0, style=style, rewrite=False)
                netlists.append(synthesize_verilog(variant.verilog,
                                                   top=variant.top))
            report = check_netlists_equivalent(netlists[0], netlists[1],
                                               vectors=48, seed=1)
            assert report.equivalent, name
