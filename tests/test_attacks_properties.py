"""Property tests for the staged attack pipelines (ISSUE 10).

The widened threat model rests on four properties:

1. **Semantics preservation** — tech_remap / retime / fsm_reencode /
   wrapper must keep the netlist functionally equivalent across
   multiple seeds, on combinational *and* sequential designs (the
   wrapper compared through its recorded core view).
2. **Per-seed determinism** — the scenario generator and the golden
   report rely on ``run_attack(attack, netlist, seed)`` emitting a
   byte-identical artifact and an identical provenance chain every run.
3. **Seed hygiene** — distinct stages of one pipeline never consume
   identical RNG streams (each derives its own child seed from the
   parent seed and the stage name).
4. **Auditable provenance** — a corrupted artifact or a tampered stage
   record must be refused loudly by :func:`verify_provenance`.

Plus the structural invariants the evaluation round-trip treatment
needs: clock pins stay primary inputs, remapped netlists stay inside
their cell vocabulary, every final artifact survives
write -> parse -> synthesize gate-for-gate, and the Trojan is provably
non-equivalent under its trigger while staying stealthy off it.
"""

import copy

import pytest

from repro.attacks import (AttackNotApplicable, attack_names,
                           derive_stage_seed, run_attack,
                           verify_provenance)
from repro.attacks.wrapper import core_view
from repro.errors import EvalError, SynthesisError
from repro.netlist.cells import DFF
from repro.netlist.verilog_io import write_netlist
from repro.sim import check_netlists_equivalent
from repro.synth import LIBRARIES, map_netlist, synthesize_verilog

COMB_SOURCE = """
module comb(input [3:0] a, input [3:0] b, input sel,
            output [4:0] y, output p);
  wire [3:0] m;
  assign m = sel ? (a ^ b) : (a & b);
  assign y = {1'b0, m} + {1'b0, b};
  assign p = ^a;
endmodule
"""

SEQ_SOURCE = """
module seq(input clk, input rst, input en, input d, output reg [3:0] q,
           output any);
  always @(posedge clk) begin
    if (rst) q <= 4'd0;
    else if (en) q <= {q[2:0], d ^ q[3]};
  end
  assign any = |q;
endmodule
"""

SEEDS = (11, 12, 13)

#: Attacks whose final artifact must match the base design.
PRESERVING = ("tech_remap", "retime", "fsm_reencode", "wrapper")
#: Attacks that need registers to operate on.
SEQUENTIAL_ONLY = ("retime", "fsm_reencode")
#: Preserving attacks that apply to a combinational base.
COMB_PRESERVING = tuple(a for a in PRESERVING if a not in SEQUENTIAL_ONLY)


@pytest.fixture(scope="module")
def comb_netlist():
    return synthesize_verilog(COMB_SOURCE)


@pytest.fixture(scope="module")
def seq_netlist():
    return synthesize_verilog(SEQ_SOURCE)


def netlist_signature(netlist):
    """A byte-precise structural identity for determinism checks."""
    return (netlist.name, tuple(netlist.inputs), tuple(netlist.outputs),
            tuple(netlist.clocks),
            tuple((g.cell, g.name, g.output, tuple(g.inputs))
                  for g in netlist.gates))


def structure_signature(netlist):
    """Gate-for-gate identity across a Verilog round trip.

    Instance names and emission order are not preserved by the writer
    (flops come back as ``always`` blocks with fresh names, after the
    combinational gates), but every gate's cell, output net, and input
    nets must survive exactly.
    """
    return (tuple(netlist.inputs), tuple(netlist.outputs),
            tuple(netlist.clocks),
            tuple(sorted((g.cell, g.output, tuple(g.inputs))
                         for g in netlist.gates)))


class TestSemanticsPreserved:
    """Every preserving attack keeps behaviour, with per-stage checks on."""

    @pytest.mark.parametrize("attack", COMB_PRESERVING)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_combinational(self, comb_netlist, attack, seed):
        # check=True exercises the generation-time per-stage checks too.
        result = run_attack(attack, comb_netlist, seed, check=True,
                            vectors=16)
        result.netlist.validate()
        report = check_netlists_equivalent(comb_netlist,
                                           result.check_netlist,
                                           vectors=32, seed=seed)
        assert report.equivalent, \
            f"{attack} seed={seed}: {report.counterexample}"

    @pytest.mark.parametrize("attack", PRESERVING)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequential(self, seq_netlist, attack, seed):
        result = run_attack(attack, seq_netlist, seed, check=True,
                            vectors=8)
        result.netlist.validate()
        report = check_netlists_equivalent(seq_netlist,
                                           result.check_netlist,
                                           vectors=10, seed=seed)
        assert report.equivalent, \
            f"{attack} seed={seed}: {report.counterexample}"

    @pytest.mark.parametrize("attack", SEQUENTIAL_ONLY)
    def test_not_applicable_without_registers(self, comb_netlist, attack):
        with pytest.raises(AttackNotApplicable):
            run_attack(attack, comb_netlist, seed=0)


class TestDeterminism:
    """Same seed -> byte-identical artifact and provenance chain."""

    @pytest.mark.parametrize("attack", attack_names())
    @pytest.mark.parametrize("seed", SEEDS)
    def test_artifact_bytes_per_seed(self, seq_netlist, attack, seed):
        first = run_attack(attack, seq_netlist, seed)
        second = run_attack(attack, seq_netlist, seed)
        assert write_netlist(first.netlist) == write_netlist(second.netlist)
        assert first.provenance["chain_hash"] == \
            second.provenance["chain_hash"]

    @pytest.mark.parametrize("attack", ("tech_remap", "wrapper", "trojan"))
    def test_artifact_bytes_combinational(self, comb_netlist, attack):
        first = run_attack(attack, comb_netlist, 7)
        second = run_attack(attack, comb_netlist, 7)
        assert write_netlist(first.netlist) == write_netlist(second.netlist)

    @pytest.mark.parametrize("attack", attack_names())
    def test_different_seeds_differ(self, seq_netlist, attack):
        signatures = {
            netlist_signature(run_attack(attack, seq_netlist, s).netlist)
            for s in SEEDS}
        assert len(signatures) == len(SEEDS)


class TestSeeding:
    """Regression: two stages never consume identical RNG streams."""

    def test_stage_seeds_distinct_per_name(self):
        names = ("map:nand", "rename", "retime", "reencode", "launder",
                 "wrap", "trojan", "library")
        for parent in (0, 1, 42, 2 ** 30):
            seeds = [derive_stage_seed(parent, n) for n in names]
            assert len(set(seeds)) == len(seeds), \
                f"stage seed collision under parent {parent}"

    def test_stage_seed_stable(self):
        assert derive_stage_seed(3, "rename") == derive_stage_seed(3,
                                                                   "rename")
        assert derive_stage_seed(3, "rename") != derive_stage_seed(4,
                                                                   "rename")

    @pytest.mark.parametrize("attack", attack_names())
    def test_pipeline_stages_use_distinct_seeds(self, seq_netlist, attack):
        result = run_attack(attack, seq_netlist, 5)
        stages = result.provenance["stages"]
        assert len(stages) >= 2, "attacks must be multi-stage flows"
        seeds = [record["seed"] for record in stages]
        assert len(set(seeds)) == len(seeds)
        names = [record["stage"] for record in stages]
        assert len(set(names)) == len(names)
        # Child seeds are derived, never the parent seed itself.
        assert result.provenance["seed"] not in seeds


class TestStructuralProperties:
    """Invariants the evaluation round-trip treatment relies on."""

    @pytest.mark.parametrize("attack", attack_names())
    def test_clock_pins_untouched(self, seq_netlist, attack):
        """No attack may route a flip-flop clock through logic."""
        transformed = run_attack(attack, seq_netlist, 3).netlist
        clocks = set(transformed.clocks)
        driven = {g.output for g in transformed.gates}
        assert clocks, f"{attack} dropped the clock input"
        assert clocks <= set(transformed.inputs)
        for gate in transformed.gates:
            if gate.cell == DFF:
                assert gate.inputs[1] in clocks
                assert gate.inputs[1] not in driven

    @pytest.mark.parametrize("library", sorted(LIBRARIES))
    def test_remap_stays_in_vocabulary(self, seq_netlist, library):
        result = run_attack("tech_remap", seq_netlist, 2, library=library)
        assert result.provenance["library"] == library
        allowed = set(LIBRARIES[library]) | {DFF}
        used = {g.cell for g in result.netlist.gates}
        assert used <= allowed, f"off-vocabulary cells: {used - allowed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_wrapper_port_map_round_trip(self, seq_netlist, seed):
        result = run_attack("wrapper", seq_netlist, seed)
        port_map = result.provenance["port_map"]
        # Every core port is reachable through the recorded map, and the
        # wrapper adds decoy ports on top of the real ones.
        assert set(port_map.values()) == \
            set(seq_netlist.inputs) | set(seq_netlist.outputs)
        assert set(port_map) <= \
            set(result.netlist.inputs) | set(result.netlist.outputs)
        assert len(result.netlist.inputs) > len(seq_netlist.inputs)
        assert len(result.netlist.outputs) > len(seq_netlist.outputs)
        view = core_view(result.netlist, port_map)
        report = check_netlists_equivalent(seq_netlist, view,
                                           vectors=10, seed=seed)
        assert report.equivalent

    def test_core_view_rejects_stale_port_map(self, seq_netlist):
        result = run_attack("wrapper", seq_netlist, 1)
        bad_map = dict(result.provenance["port_map"])
        bad_map["no_such_port"] = "q_0"
        with pytest.raises(EvalError):
            core_view(result.netlist, bad_map)


class TestTrojan:
    """The payload must fire under the trigger and hide off it."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_divergent_on_trigger(self, comb_netlist, seed):
        result = run_attack("trojan", comb_netlist, seed)
        assert not result.semantics_preserving
        assert result.trigger
        report = check_netlists_equivalent(comb_netlist, result.netlist,
                                           vectors=16, seed=seed,
                                           fixed=result.trigger)
        assert not report.equivalent, \
            "trojan payload is inert with its trigger pinned"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equivalent_off_trigger(self, comb_netlist, seed):
        result = run_attack("trojan", comb_netlist, seed)
        # Hold one trigger literal deasserted: the payload may not fire.
        literal, value = sorted(result.trigger.items())[0]
        off = dict(result.trigger)
        off[literal] = 1 - value
        report = check_netlists_equivalent(comb_netlist, result.netlist,
                                           vectors=32, seed=seed,
                                           fixed=off)
        assert report.equivalent, \
            f"trojan fires off-trigger: {report.counterexample}"

    def test_sequential_trojan_contract(self, seq_netlist):
        result = run_attack("trojan", seq_netlist, 9, check=True,
                            vectors=8)
        check = result.provenance["trojan"]["check"]
        assert check["on_trigger_divergent"]
        assert check["off_trigger_equivalent"]


class TestRoundTrip:
    """Final artifacts survive write -> parse -> synthesize unchanged."""

    @pytest.mark.parametrize("attack", attack_names())
    def test_artifact_resynthesizes_gate_for_gate(self, seq_netlist,
                                                  attack):
        artifact = run_attack(attack, seq_netlist, 4).netlist
        resynthesized = synthesize_verilog(write_netlist(artifact))
        assert structure_signature(resynthesized) == \
            structure_signature(artifact)

    @pytest.mark.parametrize("library", sorted(LIBRARIES))
    def test_remap_vocabulary_resynthesizes(self, comb_netlist, library):
        """PR 5's round-trip guarantee extends to every remap library."""
        artifact = run_attack("tech_remap", comb_netlist, 6,
                              library=library).netlist
        resynthesized = synthesize_verilog(write_netlist(artifact))
        assert structure_signature(resynthesized) == \
            structure_signature(artifact)


class TestProvenance:
    """Tampering with artifacts or their history is refused loudly."""

    @pytest.mark.parametrize("attack", attack_names())
    def test_clean_provenance_verifies(self, seq_netlist, attack):
        result = run_attack(attack, seq_netlist, 8)
        source = write_netlist(result.netlist)
        assert verify_provenance(source, result.provenance)

    def test_corrupted_artifact_refused(self, seq_netlist):
        result = run_attack("tech_remap", seq_netlist, 8)
        source = write_netlist(result.netlist) + "\n// tampered\n"
        with pytest.raises(EvalError, match="corrupted attack artifact"):
            verify_provenance(source, result.provenance)

    def test_tampered_stage_record_refused(self, seq_netlist):
        result = run_attack("wrapper", seq_netlist, 8)
        source = write_netlist(result.netlist)
        tampered = copy.deepcopy(result.provenance)
        tampered["stages"][0]["seed"] += 1
        with pytest.raises(EvalError, match="chain hash mismatch"):
            verify_provenance(source, tampered)

    def test_tampered_chain_hash_refused(self, seq_netlist):
        result = run_attack("retime", seq_netlist, 8)
        source = write_netlist(result.netlist)
        tampered = copy.deepcopy(result.provenance)
        tampered["chain_hash"] = "0" * 64
        with pytest.raises(EvalError, match="chain hash mismatch"):
            verify_provenance(source, tampered)

    def test_missing_chain_refused(self, seq_netlist):
        with pytest.raises(EvalError, match="no stage chain"):
            verify_provenance("module m; endmodule", {"attack": "x"})

    def test_unknown_attack_rejected(self, comb_netlist):
        with pytest.raises(EvalError, match="unknown attack"):
            run_attack("bitflip", comb_netlist, 0)

    def test_unknown_library_rejected(self, comb_netlist):
        with pytest.raises(SynthesisError):
            map_netlist(comb_netlist, "sky130")
