"""Evaluation-harness tests: scenarios, grafting, runner, facade, CLI.

Everything here runs with tiny corpora and untrained models — the
trained detection floor lives in ``benchmarks/bench_eval.py``; these
tests pin the harness's *mechanics*: determinism, ground-truth labels,
metric assembly, and the wiring through ``Session.evaluate`` and
``gnn4ip eval``.
"""

import json

import pytest

from repro.api import Corpus, Detector, IngestConfig, Session
from repro.cli import main
from repro.core import GNN4IP
from repro.core.metrics import ConfusionMatrix, roc_auc
from repro.errors import EvalError
from repro.eval import (
    EvalConfig,
    ScenarioContext,
    Suspect,
    generate_scenarios,
    graft_netlists,
    run_evaluation,
    scenario_names,
)
from repro.eval.report import SCHEMA_VERSION
from repro.netlist.cells import DFF
from repro.synth import synthesize_verilog

FAMILIES = ("adder8", "cmp8")
HOLDOUTS = ("satadd8",)


def tiny_context(**overrides):
    kwargs = dict(families=FAMILIES, holdouts=HOLDOUTS, seed=1,
                  check_equivalence=False)
    kwargs.update(overrides)
    return ScenarioContext(**kwargs)


def tiny_config(**overrides):
    kwargs = dict(families=FAMILIES, holdouts=HOLDOUTS,
                  corpus_instances=2, epochs=0, allow_untrained=True,
                  check_equivalence=False, seed=1, jobs=1)
    kwargs.update(overrides)
    return EvalConfig(**kwargs)


class TestScenarioGeneration:
    def test_all_scenarios_emit_suspects(self):
        suspects = generate_scenarios(tiny_context())
        by_scenario = {}
        for suspect in suspects:
            by_scenario.setdefault(suspect.scenario, []).append(suspect)
        # retime / fsm_reencode need registers; the tiny families are
        # combinational, so those two legitimately emit nothing here.
        sequential_only = {"retime", "fsm_reencode"}
        assert sorted(by_scenario) == \
            sorted(set(scenario_names()) - sequential_only)
        for name in ("rtl_variant", "netlist_obfuscate_s2",
                     "resynthesis", "tech_remap", "wrapper", "trojan"):
            assert len(by_scenario[name]) == len(FAMILIES)
        # partial_theft sweeps every configured theft fraction.
        fractions = tiny_context().theft_fractions
        assert len(by_scenario["partial_theft"]) == \
            len(FAMILIES) * len(fractions)

    def test_sequential_scenarios_emit_with_sequential_family(self):
        ctx = tiny_context(families=("adder8", "counter8"))
        suspects = generate_scenarios(ctx,
                                      names=["retime", "fsm_reencode"])
        by_scenario = {}
        for suspect in suspects:
            by_scenario.setdefault(suspect.scenario, []).append(suspect)
        assert sorted(by_scenario) == ["fsm_reencode", "retime"]
        for group in by_scenario.values():
            assert all(s.true_design == "counter8" for s in group)
            assert all(s.pirated for s in group)

    def test_deterministic(self):
        first = generate_scenarios(tiny_context())
        second = generate_scenarios(tiny_context())
        assert [s.name for s in first] == [s.name for s in second]
        assert [s.source for s in first] == [s.source for s in second]

    def test_ground_truth_labels(self):
        suspects = generate_scenarios(tiny_context())
        for suspect in suspects:
            if suspect.scenario == "unrelated":
                assert not suspect.pirated
                assert suspect.true_design is None
            else:
                assert suspect.pirated
                assert suspect.true_design in FAMILIES

    def test_unknown_scenario_rejected(self):
        with pytest.raises(EvalError, match="unknown scenario"):
            generate_scenarios(tiny_context(), names=["nope"])

    def test_holdout_overlap_rejected(self):
        with pytest.raises(EvalError, match="holdout"):
            ScenarioContext(families=FAMILIES, holdouts=("adder8",))

    def test_equivalence_spot_checks_recorded(self):
        suspects = generate_scenarios(
            tiny_context(check_equivalence=True, equivalence_checks=1,
                         equivalence_vectors=6),
            names=["netlist_obfuscate_s2"])
        outcomes = [s.provenance.get("equivalence") for s in suspects]
        checked = [o for o in outcomes if o]
        assert len(checked) == 1
        assert checked[0]["equivalent"] is True
        assert checked[0]["vectors"] == 6

    def test_filtered_families_keep_corpus_offsets(self):
        """Evaluating a subset of the configured families must regenerate
        exactly the same suspects (a missing family must not shift the
        other families onto different design instances)."""
        from repro.eval.runner import scenario_suite

        config = tiny_config(families=("adder8", "cmp8", "mux8"))
        full = {s.name: s.source for s in scenario_suite(config)}
        subset = {s.name: s.source
                  for s in scenario_suite(config,
                                          families=("adder8", "mux8"))}
        assert subset  # non-empty
        for name, source in subset.items():
            if name in full:
                assert source == full[name]

    def test_rtl_scheme_matches_rtl_corpus_instance0(self):
        """At level=rtl the scenario bases follow generate_corpus's
        instance-0 seeding, not the netlist scheme."""
        from repro.designs import generate_corpus

        ctx = tiny_context(corpus_scheme="rtl", seed=4)
        corpus = generate_corpus(families=list(FAMILIES),
                                 instances_per_design=1, seed=4)
        by_design = {v.design: v for v in corpus}
        for name in FAMILIES:
            assert ctx.base_rtl(name).verilog == by_design[name].verilog

    def test_check_pairs_dropped_after_generation(self):
        suspects = generate_scenarios(tiny_context(check_equivalence=True))
        assert all(s.check_pair is None for s in suspects)

    def test_as_dict_omits_source(self):
        suspect = generate_scenarios(tiny_context(),
                                     names=["rtl_variant"])[0]
        record = suspect.as_dict()
        assert "source" not in record
        assert record["scenario"] == "rtl_variant"
        assert json.dumps(record)  # JSON-serializable


class TestGrafting:
    HOST = """
    module host(input [3:0] a, input [3:0] b, output [3:0] y);
      assign y = a & b;
    endmodule
    """
    STOLEN = """
    module stolen(input clk, input d, output reg [3:0] q);
      always @(posedge clk) q <= {q[2:0], d};
    endmodule
    """

    def test_full_graft_keeps_host_ports_and_stolen_logic(self):
        host = synthesize_verilog(self.HOST)
        stolen = synthesize_verilog(self.STOLEN)
        graft = graft_netlists(host, stolen, fraction=1.0, seed=0)
        assert graft.num_gates > host.num_gates
        for net in host.inputs:
            assert net in graft.inputs
        for net in host.outputs:
            assert net in graft.outputs
        assert len(graft.outputs) > len(host.outputs)  # stolen observable
        graft.validate()

    def test_fraction_scales_kept_logic(self):
        host = synthesize_verilog(self.HOST)
        stolen = synthesize_verilog(self.STOLEN)
        small = graft_netlists(host, stolen, fraction=0.25, seed=0)
        full = graft_netlists(host, stolen, fraction=1.0, seed=0)
        assert host.num_gates < small.num_gates < full.num_gates

    def test_sequential_stolen_into_combinational_host_gains_clock(self):
        host = synthesize_verilog(self.HOST)
        stolen = synthesize_verilog(self.STOLEN)
        graft = graft_netlists(host, stolen, fraction=1.0, seed=0)
        assert any(g.cell == DFF for g in graft.gates)
        assert len(graft.clocks) == 1

    def test_bad_fraction_rejected(self):
        host = synthesize_verilog(self.HOST)
        stolen = synthesize_verilog(self.STOLEN)
        for fraction in (0.0, -0.2, 1.5):
            with pytest.raises(EvalError, match="fraction"):
                graft_netlists(host, stolen, fraction=fraction)

    def test_graft_deterministic(self):
        host = synthesize_verilog(self.HOST)
        stolen = synthesize_verilog(self.STOLEN)
        first = graft_netlists(host, stolen, fraction=0.5, seed=3)
        second = graft_netlists(host, stolen, fraction=0.5, seed=3)
        assert [(g.cell, g.output, tuple(g.inputs)) for g in first.gates] \
            == [(g.cell, g.output, tuple(g.inputs)) for g in second.gates]


class TestRunner:
    @pytest.fixture(scope="class")
    def report(self):
        return run_evaluation(tiny_config())

    def test_report_shape(self, report):
        data = report.as_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert sorted(data["scenarios"]) == sorted(scenario_names())
        assert data["corpus"]["designs"] == len(FAMILIES)
        assert data["model"]["trained"] is False
        confusion = data["overall"]["confusion"]
        total = sum(confusion[k] for k in ("tp", "fp", "fn", "tn"))
        assert total == data["overall"]["suspects"]

    def test_partial_theft_in_breakdown(self, report):
        metrics = report.as_dict()["scenarios"]["partial_theft"]
        assert metrics["pirated"] == metrics["suspects"] > 0
        assert metrics["recall_at_k"]["10"] is not None
        provenance = metrics["suspect_results"][0]["provenance"]
        assert provenance["fraction"] in EvalConfig.theft_fractions
        assert provenance["host"] in HOLDOUTS
        # Recall is broken down per swept fraction for the CI floor.
        by_fraction = metrics["recall_by_fraction"]
        assert sorted(by_fraction) == \
            sorted(f"{f:g}" for f in EvalConfig.theft_fractions)
        for recalls in by_fraction.values():
            assert "10" in recalls

    def test_recall_accessor(self, report):
        value = report.recall_at(10, "netlist_obfuscate_s2")
        assert 0.0 <= value <= 1.0
        assert report.recall_at(10) == \
            report.as_dict()["overall"]["recall_at_k"]["10"]

    def test_render_text_mentions_every_scenario(self, report):
        text = report.render_text()
        for name in scenario_names():
            assert name in text

    def test_stable_json(self, report):
        assert report.to_json() == report.to_json()
        parsed = json.loads(report.to_json())
        assert parsed["schema_version"] == SCHEMA_VERSION

    def test_untrained_requires_opt_in(self):
        with pytest.raises(EvalError, match="untrained"):
            run_evaluation(tiny_config(allow_untrained=False))

    def test_bad_level_rejected(self):
        with pytest.raises(EvalError, match="level"):
            EvalConfig(level="gds2")

    def test_baseline_wl_kernel(self):
        report = run_evaluation(tiny_config(baselines=("wl_kernel",)))
        metrics = report.as_dict()["baselines"]["wl_kernel"]
        assert "recall_at_k" in metrics
        assert 0.0 <= metrics["auc"] <= 1.0


class TestSessionEvaluate:
    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        from repro.eval.runner import build_eval_corpus

        detector = Detector.from_model(GNN4IP(seed=1,
                                              featurizer="netlist"))
        corpus, _ = build_eval_corpus(tmp_path_factory.mktemp("evalidx"),
                                      tiny_config(), detector)
        return Session(detector=detector, corpus=corpus)

    def test_facade_evaluate(self, session):
        report = session.evaluate(tiny_config())
        assert report.as_dict()["corpus"]["designs"] == len(FAMILIES)
        # Session.evaluate cannot know whether the bound model was
        # trained; only run_evaluation may claim True/False.
        assert report.as_dict()["model"]["trained"] is None
        assert "(UNTRAINED)" not in report.render_text()

    def test_facade_overrides(self, session):
        report = session.evaluate(tiny_config(),
                                  scenarios=("netlist_obfuscate_s2",
                                             "unrelated"))
        assert sorted(report.as_dict()["scenarios"]) == \
            ["netlist_obfuscate_s2", "unrelated"]

    def test_level_mismatch_rejected(self, session):
        with pytest.raises(EvalError, match="level"):
            session.evaluate(tiny_config(), level="rtl")

    def test_no_corpus_rejected(self):
        session = Session(detector=Detector.untrained(level="netlist"))
        with pytest.raises(EvalError, match="corpus"):
            session.evaluate(tiny_config())

    def test_foreign_corpus_rejected(self, tmp_path):
        """A corpus of unknown designs cannot host family scenarios."""
        (tmp_path / "x.v").write_text(
            "module mystery(input a, output y); assign y = ~a; endmodule")
        detector = Detector.from_model(GNN4IP(seed=0,
                                              featurizer="netlist"))
        corpus, _ = Corpus.build(tmp_path / "idx", [tmp_path / "x.v"],
                                 detector, IngestConfig(level="netlist",
                                                        jobs=1))
        session = Session(detector=detector, corpus=corpus)
        with pytest.raises(EvalError, match="families"):
            session.evaluate(tiny_config())


class TestCli:
    def test_eval_json(self, capsys):
        code = main(["eval", "--allow-untrained", "--families", "adder8",
                     "cmp8", "--holdouts", "satadd8", "--instances", "2",
                     "--suspects", "1", "--seed", "1", "--jobs", "1",
                     "--no-equivalence", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "partial_theft" in payload["scenarios"]
        assert payload["model"]["trained"] is False

    def test_eval_scenario_subset_and_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["eval", "--allow-untrained", "--families", "adder8",
                     "cmp8", "--holdouts", "satadd8", "--instances", "2",
                     "--suspects", "1", "--seed", "1", "--jobs", "1",
                     "--no-equivalence", "--scenarios",
                     "netlist_obfuscate_s2", "unrelated",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "netlist_obfuscate_s2" in text
        written = json.loads(out.read_text())
        assert sorted(written["scenarios"]) == \
            ["netlist_obfuscate_s2", "unrelated"]

    def test_eval_unknown_scenario_errors(self, capsys):
        code = main(["eval", "--allow-untrained", "--scenarios", "nope",
                     "--families", "adder8", "cmp8", "--holdouts",
                     "satadd8", "--jobs", "1"])
        assert code == 1
        assert "unknown scenario" in capsys.readouterr().err


class TestMetrics:
    def test_roc_auc_perfect(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_roc_auc_inverted(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_roc_auc_ties_average(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5

    def test_roc_auc_single_class_undefined(self):
        assert roc_auc([0.5, 0.6], [1, 1]) is None
        assert roc_auc([], []) is None

    def test_confusion_f1_and_dict(self):
        matrix = ConfusionMatrix(tp=8, fp=2, fn=2, tn=8)
        assert matrix.f1 == pytest.approx(0.8)
        data = matrix.as_dict()
        assert data["tp"] == 8 and data["f1"] == pytest.approx(0.8)
        assert ConfusionMatrix().f1 == 0.0

    def test_suspect_dataclass_roundtrip(self):
        suspect = Suspect(name="s", scenario="x", source="module m;",
                          true_design="m", pirated=True)
        assert suspect.as_dict()["pirated"] is True
