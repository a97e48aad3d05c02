"""Property-based tests for the bit-blasting word operations.

Every word-level operator is checked against Python integer semantics on
randomized operands by building a tiny netlist and simulating it.
"""

from hypothesis import given, settings, strategies as st

from repro.netlist.netlist import CONST0, CONST1, NetlistBuilder
from repro.sim import NetlistSimulator
from repro.synth.bitblast import BitLowering, const_bits, fit

WIDTH = 6
MAX = (1 << WIDTH) - 1


def evaluate(build, a=None, b=None, width=WIDTH):
    """Build a netlist computing build(logic, a_bits, b_bits) and run it."""
    builder = NetlistBuilder("prop")
    logic = BitLowering(builder)
    a_bits = builder.input_bus("a", width) if a is not None else None
    b_bits = builder.input_bus("b", width) if b is not None else None
    out_bits = build(logic, a_bits, b_bits)
    for i, bit in enumerate(out_bits):
        builder.buf_(bit, out=builder.netlist.add_output(f"y_{i}"))
    sim = NetlistSimulator(builder.build())
    stim = {}
    if a is not None:
        stim.update(sim.drive_bus("a", width, a))
    if b is not None:
        stim.update(sim.drive_bus("b", width, b))
    sim.set_inputs(stim)
    return sim.read_bus("y", len(out_bits))


values = st.integers(0, MAX)


class TestConstHelpers:
    def test_const_bits_roundtrip(self):
        for value in (0, 1, 5, MAX):
            bits = const_bits(value, WIDTH)
            total = sum((1 << i) for i, b in enumerate(bits) if b == CONST1)
            assert total == value

    def test_fit_extends_and_truncates(self):
        bits = [CONST1, CONST0]
        assert len(fit(bits, 5)) == 5
        assert fit(bits, 5)[2:] == [CONST0] * 3
        assert fit(bits, 1) == [CONST1]


class TestPropertyOps:
    @settings(max_examples=20, deadline=None)
    @given(values, values)
    def test_add(self, a, b):
        got = evaluate(lambda l, x, y: l.add(x, y), a, b)
        assert got == a + b  # result is WIDTH+1 bits: exact

    @settings(max_examples=20, deadline=None)
    @given(values, values)
    def test_sub_wraps(self, a, b):
        got = evaluate(lambda l, x, y: l.sub(x, y), a, b)
        assert got == (a - b) & MAX

    @settings(max_examples=15, deadline=None)
    @given(values, values)
    def test_mul(self, a, b):
        got = evaluate(lambda l, x, y: l.mul(x, y), a, b)
        assert got == a * b

    @settings(max_examples=20, deadline=None)
    @given(values, values)
    def test_bitwise(self, a, b):
        assert evaluate(lambda l, x, y: l.word_and(x, y), a, b) == (a & b)
        assert evaluate(lambda l, x, y: l.word_or(x, y), a, b) == (a | b)
        assert evaluate(lambda l, x, y: l.word_xor(x, y), a, b) == (a ^ b)

    @settings(max_examples=20, deadline=None)
    @given(values)
    def test_not(self, a):
        got = evaluate(lambda l, x, y: l.word_not(x), a)
        assert got == (~a) & MAX

    @settings(max_examples=20, deadline=None)
    @given(values, values)
    def test_comparisons(self, a, b):
        assert evaluate(lambda l, x, y: [l.eq(x, y)], a, b) == int(a == b)
        assert evaluate(lambda l, x, y: [l.neq(x, y)], a, b) == int(a != b)
        assert evaluate(lambda l, x, y: [l.lt(x, y)], a, b) == int(a < b)
        assert evaluate(lambda l, x, y: [l.le(x, y)], a, b) == int(a <= b)

    @settings(max_examples=20, deadline=None)
    @given(values)
    def test_reductions(self, a):
        assert evaluate(lambda l, x, y: [l.reduce_and(x)], a) == \
            int(a == MAX)
        assert evaluate(lambda l, x, y: [l.reduce_or(x)], a) == int(a != 0)
        assert evaluate(lambda l, x, y: [l.reduce_xor(x)], a) == \
            bin(a).count("1") % 2

    @settings(max_examples=15, deadline=None)
    @given(values, st.integers(0, WIDTH))
    def test_const_shifts(self, a, amount):
        left = evaluate(lambda l, x, y: l.shift_const(x, amount, True,
                                                      WIDTH), a)
        right = evaluate(lambda l, x, y: l.shift_const(x, amount, False,
                                                       WIDTH), a)
        assert left == (a << amount) & MAX
        assert right == a >> amount

    @settings(max_examples=15, deadline=None)
    @given(values, st.integers(0, 7))
    def test_variable_shift(self, a, amount):
        def build(l, x, y):
            amount_bits = const_bits(amount, 3)
            return l.shift_var(x, amount_bits, True, WIDTH)

        assert evaluate(build, a) == (a << amount) & MAX

    @settings(max_examples=15, deadline=None)
    @given(values, st.integers(0, WIDTH - 1))
    def test_variable_bit_select(self, a, index):
        def build(l, x, y):
            return [l.select_var_bit(x, const_bits(index, 3))]

        assert evaluate(build, a) == (a >> index) & 1

    @settings(max_examples=15, deadline=None)
    @given(values, values, st.booleans())
    def test_mux_word(self, a, b, sel):
        def build(l, x, y):
            return l.mux_word(x, y, CONST1 if sel else CONST0)

        assert evaluate(build, a, b) == (b if sel else a)

    @settings(max_examples=15, deadline=None)
    @given(values)
    def test_neg(self, a):
        assert evaluate(lambda l, x, y: l.neg(x), a) == (-a) & MAX


class TestConstantFolding:
    """The lowering folds constants instead of emitting gates."""

    def count_gates(self, build):
        builder = NetlistBuilder("fold")
        logic = BitLowering(builder)
        a = builder.input_bus("a", 4)
        build(logic, a)
        return builder.netlist.num_gates

    def test_and_with_zero_is_free(self):
        gates = self.count_gates(
            lambda l, a: l.word_and(a, const_bits(0, 4)))
        assert gates == 0

    def test_xor_with_zero_is_free(self):
        gates = self.count_gates(
            lambda l, a: l.word_xor(a, const_bits(0, 4)))
        assert gates == 0

    def test_mux_same_inputs_free(self):
        builder = NetlistBuilder("fold")
        logic = BitLowering(builder)
        builder.inputs("a", "s")
        assert logic.bit_mux("a", "a", "s") == "a"
        assert builder.netlist.num_gates == 0

    def test_add_zero_cheap(self):
        gates = self.count_gates(lambda l, a: l.add(a, const_bits(0, 4),
                                                    width=4))
        assert gates == 0
