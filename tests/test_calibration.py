"""The calibrated decision subsystem (:mod:`repro.calib`).

Covers the fitters' numerics (Platt standardization edge cases,
isotonic monotonicity under PAV), the loud refusals (too little data,
single-class data, stale artifacts), artifact round-trips, evidence
assembly, hard-negative mining, and the end-to-end wiring: a persisted
``calibration.json`` must annotate ``Session.query`` /
``Session.compare`` results and serve bit-identical probabilities
in-process and through an N-worker scatter-gather server.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.api import Corpus, Session
from repro.calib import (
    ARTIFACT_NAME,
    EVIDENCE_FEATURES,
    MIN_PAIRS,
    Calibration,
    EvidenceCalibrator,
    IsotonicCalibrator,
    PlattCalibrator,
    ScoreCalibrator,
    balanced_threshold,
    expected_calibration_error,
    match_evidence,
    mine_hard_negatives,
    reliability_bins,
    threshold_sweep,
)
from repro.client import AsyncClient
from repro.core.gnn4ip import GNN4IP
from repro.designs import rtl_records
from repro.errors import CalibrationError
from repro.index.shards import unit_rows_f32, write_shard
from repro.index.store import FORMAT_VERSION
from repro.server import ReproServer

SEED = 23
HIDDEN = 12
N = 90
SHARDS = 3


def _separable_scores(rng, n=40):
    neg = rng.normal(0.25, 0.08, n)
    pos = rng.normal(0.85, 0.05, n)
    scores = np.concatenate([neg, pos])
    labels = np.concatenate([np.zeros(n), np.ones(n)])
    return scores, labels


def _synthetic_evidence(rng, suspects=32, k=5):
    """Separable per-suspect evidence blocks: pirated suspects carry one
    high-score, high-margin row."""
    evidence, match_labels, pirated = [], [], []
    for i in range(suspects):
        is_pirated = i % 2 == 0
        block = rng.normal(0.3, 0.1, (k, len(EVIDENCE_FEATURES)))
        labels = np.zeros(k)
        if is_pirated:
            block[0, 0] = rng.normal(0.92, 0.02)   # score
            block[0, 3] = rng.normal(0.45, 0.05)   # margin
            labels[0] = 1.0
        evidence.append(block)
        match_labels.append(labels)
        pirated.append(float(is_pirated))
    return evidence, match_labels, np.array(pirated)


class _FakeMatch:
    def __init__(self, design, score, coverage=None, struct=None):
        self.design = design
        self.score = score
        self.coverage = coverage
        self.struct = struct


# -- report helpers ----------------------------------------------------------

class TestReportHelpers:
    def test_reliability_bins_partition_mass(self):
        probs = np.array([0.05, 0.15, 0.95, 0.85, 0.5])
        labels = np.array([0, 0, 1, 1, 1])
        bins = reliability_bins(probs, labels)
        assert sum(b["count"] for b in bins) == len(probs)
        for b in bins:
            assert b["low"] <= b["confidence"] <= b["high"] + 1e-9
            assert 0.0 <= b["accuracy"] <= 1.0

    def test_ece_perfect_and_inverted(self):
        labels = np.array([0.0] * 50 + [1.0] * 50)
        assert expected_calibration_error(labels, labels) == 0.0
        assert expected_calibration_error(1.0 - labels, labels) \
            == pytest.approx(1.0)
        assert expected_calibration_error(np.array([]), np.array([])) \
            is None

    def test_threshold_sweep_grid(self):
        rng = np.random.default_rng(SEED)
        scores, labels = _separable_scores(rng)
        sweep = threshold_sweep(scores.clip(0, 1), labels)
        assert [p["threshold"] for p in sweep] == \
            pytest.approx(list(np.linspace(0.0, 1.0, 21)))
        # At t=0 everything is flagged; at t=1 nothing above 1.0 is.
        assert sweep[0]["recall"] == 1.0 and sweep[0]["fpr"] == 1.0
        assert sweep[-1]["recall"] == 0.0

    def test_balanced_threshold_separable(self):
        rng = np.random.default_rng(SEED)
        scores, labels = _separable_scores(rng)
        t = balanced_threshold(scores, labels)
        flagged = scores >= t
        fpr = flagged[labels == 0].mean()
        fnr = 1.0 - flagged[labels == 1].mean()
        assert max(fpr, fnr) <= 0.05

    def test_balanced_threshold_single_class_falls_back(self):
        assert balanced_threshold(np.array([0.2, 0.8]),
                                  np.array([1.0, 1.0])) == 0.5


# -- core fitters ------------------------------------------------------------

class TestPlatt:
    def test_separates_and_round_trips(self):
        rng = np.random.default_rng(SEED)
        scores, labels = _separable_scores(rng)
        cal = PlattCalibrator.fit(scores[:, None], labels)
        probs = cal.predict(scores[:, None])
        assert probs[labels == 1].min() > probs[labels == 0].max()
        again = PlattCalibrator.from_dict(
            json.loads(json.dumps(cal.to_dict())))
        assert np.array_equal(again.predict(scores[:, None]), probs)

    def test_constant_feature_degrades_to_base_rate(self):
        # A zero-variance column must not divide by zero: the fit
        # degrades to an intercept-only model of the base rate.
        X = np.full((20, 1), 0.7)
        y = np.array([1.0] * 5 + [0.0] * 15)
        cal = PlattCalibrator.fit(X, y)
        probs = cal.predict(X)
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(0.25, abs=0.05)
        assert np.ptp(probs) == 0.0


class TestIsotonic:
    def test_monotone_by_construction(self):
        rng = np.random.default_rng(SEED)
        scores = rng.uniform(0, 1, 200)
        labels = (rng.uniform(0, 1, 200) < scores).astype(float)
        cal = IsotonicCalibrator.fit(scores, labels)
        grid = np.linspace(-0.5, 1.5, 400)
        out = cal.predict(grid)
        assert np.all(np.diff(out) >= -1e-12)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_tied_scores_pool(self):
        scores = np.array([0.5, 0.5, 0.5, 0.9])
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        cal = IsotonicCalibrator.fit(scores, labels)
        assert cal.predict([0.5])[0] == pytest.approx(1 / 3)

    def test_single_distinct_score_is_constant(self):
        cal = IsotonicCalibrator.fit(np.full(10, 0.4),
                                     np.array([1.0] * 3 + [0.0] * 7))
        assert np.array_equal(cal.predict([0.0, 0.4, 1.0]),
                              np.full(3, 0.3))


class TestScoreCalibrator:
    def test_refuses_too_few_pairs(self):
        with pytest.raises(CalibrationError, match="refusing"):
            ScoreCalibrator.fit(np.linspace(0, 1, MIN_PAIRS - 1),
                                np.array([0.0, 1.0] * 3 + [0.0]))

    def test_refuses_single_class(self):
        with pytest.raises(CalibrationError, match="same label"):
            ScoreCalibrator.fit(np.linspace(0, 1, 20), np.ones(20))

    def test_refuses_unknown_method(self):
        with pytest.raises(CalibrationError, match="unknown"):
            ScoreCalibrator.fit(np.linspace(0, 1, 20),
                                np.array([0.0, 1.0] * 10),
                                method="beta")

    def test_constant_scores_survive_both_methods(self):
        scores = np.full(20, 0.6)
        labels = np.array([0.0, 1.0] * 10)
        for method in ("platt", "isotonic"):
            cal = ScoreCalibrator.fit(scores, labels, method=method,
                                      bootstrap=4)
            probs = cal.probability(scores)
            assert np.all(np.isfinite(probs))

    @pytest.mark.parametrize("method", ["platt", "isotonic"])
    def test_band_contains_point_and_round_trips(self, method):
        rng = np.random.default_rng(SEED)
        scores, labels = _separable_scores(rng)
        cal = ScoreCalibrator.fit(scores, labels, method=method,
                                  bootstrap=8, seed=1)
        probe = np.linspace(0, 1, 11)
        low, high = cal.interval(probe)
        assert np.all(low <= high + 1e-12)
        again = ScoreCalibrator.from_dict(
            json.loads(json.dumps(cal.to_dict())))
        assert np.array_equal(again.probability(probe),
                              cal.probability(probe))
        assert again.threshold == cal.threshold


class TestEvidenceCalibrator:
    def test_separates_and_round_trips(self):
        rng = np.random.default_rng(SEED)
        evidence, match_labels, pirated = _synthetic_evidence(rng)
        cal = EvidenceCalibrator.fit(evidence, match_labels, pirated,
                                     delta=0.5, bootstrap=4, seed=0)
        probs = np.array([cal.probability(ev) for ev in evidence])
        assert ((probs >= cal.threshold) == pirated.astype(bool)).all()
        again = EvidenceCalibrator.from_dict(
            json.loads(json.dumps(cal.to_dict())))
        assert np.array_equal(
            np.array([again.probability(ev) for ev in evidence]), probs)

    def test_suspect_probability_is_top_match_probability(self):
        rng = np.random.default_rng(SEED)
        evidence, match_labels, pirated = _synthetic_evidence(rng)
        cal = EvidenceCalibrator.fit(evidence, match_labels, pirated,
                                     delta=0.5, bootstrap=0)
        per_match = cal.match_probabilities(evidence[0])
        assert cal.probability(evidence[0]) \
            == pytest.approx(per_match.max())
        low, high = cal.match_intervals(evidence[0])
        assert np.array_equal(low, per_match)  # no replicas: collapsed

    def test_refuses_single_class(self):
        rng = np.random.default_rng(SEED)
        evidence, match_labels, _ = _synthetic_evidence(rng)
        with pytest.raises(CalibrationError, match="same label"):
            EvidenceCalibrator.fit(evidence, match_labels,
                                   np.ones(len(evidence)), delta=0.5)


# -- evidence assembly -------------------------------------------------------

class TestMatchEvidence:
    def test_features(self):
        matches = [_FakeMatch("a", 0.95, coverage=0.8, struct=0.6),
                   _FakeMatch("b", 0.70, struct=0.2),
                   _FakeMatch("a", 0.40)]
        ev = match_evidence(matches, delta=0.5)
        assert ev.shape == (3, len(EVIDENCE_FEATURES))
        row = dict(zip(EVIDENCE_FEATURES, ev[0]))
        assert row["score"] == pytest.approx(0.95)
        assert row["coverage"] == pytest.approx(0.8)
        assert row["struct"] == pytest.approx(0.6)
        # Margin is against the best score of any *other* design.
        assert row["margin"] == pytest.approx(0.95 - 0.70)
        assert row["best"] == pytest.approx(0.95)
        assert row["struct_max"] == pytest.approx(0.6)
        assert row["struct_top2"] == pytest.approx(0.2)
        assert row["frac_above_delta"] == pytest.approx(2 / 3)
        assert row["frac_above_hi"] == pytest.approx(1 / 3)
        # None coverage/struct contribute 0.0, not NaN.
        assert ev[2][1] == 0.0 and ev[2][2] == 0.0

    def test_single_design_margin_floor(self):
        ev = match_evidence([_FakeMatch("a", 0.9)], delta=0.5)
        # No other design in the list: margin bottoms out at score+2.
        assert ev[0][3] == pytest.approx(0.9 + 2.0)

    def test_empty(self):
        assert match_evidence([], delta=0.5).shape \
            == (0, len(EVIDENCE_FEATURES))


# -- the persisted artifact --------------------------------------------------

@pytest.fixture(scope="module")
def fitted_artifact():
    rng = np.random.default_rng(SEED)
    scores, labels = _separable_scores(rng)
    evidence, match_labels, pirated = _synthetic_evidence(rng)
    return Calibration(
        model_hash="deadbeef", index_format=FORMAT_VERSION, level="rtl",
        delta=0.5,
        pair=ScoreCalibrator.fit(scores, labels, bootstrap=4),
        match=EvidenceCalibrator.fit(evidence, match_labels, pirated,
                                     delta=0.5, bootstrap=4),
        info={"suspects": len(pirated)})


class TestCalibrationArtifact:
    def test_requires_a_tier(self):
        with pytest.raises(CalibrationError, match="at least one"):
            Calibration(model_hash="x", index_format=4, level="rtl",
                        delta=0.0)

    def test_save_load_identical_predictions(self, fitted_artifact,
                                             tmp_path):
        path = fitted_artifact.save(tmp_path)
        assert path.name == ARTIFACT_NAME
        loaded = Calibration.load(tmp_path, model_hash="deadbeef",
                                  index_format=FORMAT_VERSION,
                                  level="rtl")
        probe = np.linspace(0, 1, 9)
        assert np.array_equal(loaded.pair.probability(probe),
                              fitted_artifact.pair.probability(probe))
        rng = np.random.default_rng(SEED + 1)
        ev = rng.normal(0.4, 0.2, (4, len(EVIDENCE_FEATURES)))
        assert loaded.match.probability(ev) \
            == fitted_artifact.match.probability(ev)
        assert loaded.match.threshold == fitted_artifact.match.threshold

    @pytest.mark.parametrize("mismatch", [
        {"model_hash": "other"},
        {"index_format": FORMAT_VERSION + 1},
        {"level": "netlist"},
    ])
    def test_refuses_stale_artifact(self, fitted_artifact, tmp_path,
                                    mismatch):
        fitted_artifact.save(tmp_path)
        expect = {"model_hash": "deadbeef",
                  "index_format": FORMAT_VERSION, "level": "rtl"}
        expect.update(mismatch)
        with pytest.raises(CalibrationError, match="stale"):
            Calibration.load(tmp_path, **expect)

    def test_refuses_wrong_schema(self, fitted_artifact, tmp_path):
        blob = fitted_artifact.to_dict()
        blob["schema"] = 999
        (tmp_path / ARTIFACT_NAME).write_text(json.dumps(blob))
        with pytest.raises(CalibrationError, match="schema"):
            Calibration.load(tmp_path)

    def test_refuses_corrupt_json(self, tmp_path):
        (tmp_path / ARTIFACT_NAME).write_text("{not json")
        with pytest.raises(CalibrationError, match="corrupt"):
            Calibration.load(tmp_path)
        with pytest.raises(CalibrationError, match="cannot read"):
            Calibration.load(tmp_path / "missing" / ARTIFACT_NAME)

    def test_annotate_matches_sets_calibrated_verdict(self,
                                                      fitted_artifact):
        from repro.api.types import Match

        matches = [Match(rank=1, name="n", path="p", design="a",
                         score=0.95, is_piracy=True),
                   Match(rank=2, name="m", path="p", design="b",
                         score=0.30, is_piracy=False)]
        fitted_artifact.annotate_matches(matches)
        for m in matches:
            assert 0.0 <= m.probability <= 1.0
            assert m.confidence_low <= m.probability <= m.confidence_high
            assert m.calibrated_piracy is not None
            assert m.verdict == ("PIRACY" if m.calibrated_piracy
                                 else "no piracy")
            assert m.flagged == m.calibrated_piracy

    def test_annotate_comparison(self, fitted_artifact):
        from repro.api.types import Comparison

        comparison = Comparison(score=0.9, delta=0.5, is_piracy=True)
        fitted_artifact.annotate_comparison(comparison)
        assert comparison.probability is not None
        assert comparison.confidence_low <= comparison.probability \
            <= comparison.confidence_high
        payload = comparison.as_dict()
        assert payload["probability"] == comparison.probability
        assert payload["verdict"] == comparison.verdict


# -- hard-negative mining ----------------------------------------------------

def _tiny_records():
    return rtl_records(families=("adder8", "cmp8"),
                       instances_per_design=2, seed=SEED)


class TestHardNegatives:
    def test_mines_cross_design_pairs(self):
        records = _tiny_records()
        model = GNN4IP(seed=SEED)
        mined = mine_hard_negatives(records, model, per_record=1)
        assert mined
        designs = [r.design for r in records]
        for i, j, label in mined:
            assert label == -1
            assert designs[i] != designs[j]
            assert i < j
        # Deterministic.
        assert mined == mine_hard_negatives(records, model, per_record=1)

    def test_disabled_and_degenerate(self):
        records = _tiny_records()
        model = GNN4IP(seed=SEED)
        assert mine_hard_negatives(records, model, per_record=0) == []
        with pytest.raises(CalibrationError, match="at least two"):
            mine_hard_negatives(records[:1], model)


# -- trainer hook: extra_pairs off must stay bit-identical -------------------

class TestTrainerExtraPairs:
    def test_none_is_bit_identical(self):
        from repro.core import Trainer, build_pair_dataset

        dataset = build_pair_dataset(_tiny_records(), seed=SEED)

        def run(extra_pairs):
            model = GNN4IP(seed=SEED)
            Trainer(model, seed=SEED).fit(dataset, epochs=2,
                                          tune_delta=False,
                                          extra_pairs=extra_pairs)
            return [p.data.copy() for p in model.encoder.parameters()]

        for a, b in zip(run(None), run([])):
            assert np.array_equal(a, b)


# -- end-to-end: annotated queries, serving bit-identity ---------------------

def _write_synthetic_index(root, rows):
    per = len(rows) // SHARDS
    specs = []
    for i in range(SHARDS):
        stop = len(rows) if i == SHARDS - 1 else (i + 1) * per
        specs.append(write_shard(root, i, rows[i * per:stop]))
    entries = [{"name": f"d{i:05d}", "path": f"d{i:05d}.v",
                "key": f"{i:064d}", "design": f"fam{i % 30}",
                "status": "ok"} for i in range(len(rows))]
    table = [{"kind": "design", "name": f"d{i:05d}"}
             for i in range(len(rows))]
    meta = {"version": FORMAT_VERSION, "model_hash": "test",
            "options": {"top": None, "level": "rtl", "use_cache": False},
            "store": {"dtype": "float32", "hidden": HIDDEN,
                      "shards": specs},
            "entries": entries, "rows": table}
    (root / "meta.json").write_text(json.dumps(meta))


@pytest.fixture(scope="module")
def calibrated_index(tmp_path_factory):
    """A synthetic on-disk index with a fitted calibration.json, plus
    labeled probe vectors (positives are near-duplicates of stored
    rows, negatives are random directions)."""
    root = tmp_path_factory.mktemp("calib_idx")
    rng = np.random.default_rng(SEED)
    rows = unit_rows_f32(rng.standard_normal((N, HIDDEN)))
    _write_synthetic_index(root, rows)

    picks = rng.choice(N, size=12, replace=False)
    positives = unit_rows_f32(
        rows[picks] + 0.02 * rng.standard_normal((12, HIDDEN)))
    negatives = unit_rows_f32(rng.standard_normal((12, HIDDEN)))
    probes = np.vstack([positives, negatives]).astype(np.float64)
    labels = np.array([1.0] * 12 + [0.0] * 12)

    session = Session(corpus=Corpus.open(root))
    results = session.query(list(probes), k=5)
    evidence = [match_evidence(list(result), 0.0) for result in results]
    true_names = [f"d{i:05d}" for i in picks] + [None] * 12
    match_labels = [
        np.array([1.0 if (labels[s] and m.name == true_names[s]) else 0.0
                  for m in results[s]])
        for s in range(len(probes))]
    artifact = Calibration(
        model_hash="test", index_format=FORMAT_VERSION, level="rtl",
        delta=0.0,
        pair=ScoreCalibrator.fit(
            [r[0].score for r in results], labels, bootstrap=4),
        match=EvidenceCalibrator.fit(evidence, match_labels, labels,
                                     delta=0.0, bootstrap=4))
    artifact.save(root)
    return root, probes, labels


class TestEndToEnd:
    def test_session_query_is_annotated(self, calibrated_index):
        root, probes, labels = calibrated_index
        session = Session(corpus=Corpus.open(root))
        results = session.query(list(probes), k=5)
        for result, label in zip(results, labels):
            top = result[0]
            assert top.probability is not None
            assert top.confidence_low <= top.probability \
                <= top.confidence_high
            assert top.calibrated_piracy == bool(label)
        # Raw scores and the delta verdicts are untouched by annotation.
        plain = [m.score for m in results[0]]
        assert plain == sorted(plain, reverse=True)

    def test_stale_artifact_refused_on_query(self, calibrated_index,
                                             tmp_path):
        root, probes, _ = calibrated_index
        corpus = Corpus.open(root)
        import shutil

        data = json.loads((root / ARTIFACT_NAME).read_text())
        data["model_hash"] = "someone-elses-model"
        stale = tmp_path / "stale"
        shutil.copytree(root, stale)
        (stale / ARTIFACT_NAME).write_text(json.dumps(data))
        session = Session(corpus=Corpus.open(stale))
        with pytest.raises(CalibrationError, match="stale"):
            session.query(list(probes[:1]), k=3)
        # The healthy index keeps answering.
        assert corpus.calibration() is not None

    def test_calibrate_refits_over_stale_artifact(self, calibrated_index,
                                                  tmp_path, monkeypatch):
        # 'gnn4ip calibrate' is the prescribed fix for a stale
        # artifact, so its fit queries must bypass the stale artifact
        # instead of refusing like a normal query would.
        root, probes, _ = calibrated_index
        import shutil

        healthy = json.loads((root / ARTIFACT_NAME).read_text())
        data = dict(healthy, model_hash="someone-elses-model")
        stale = tmp_path / "stale"
        shutil.copytree(root, stale)
        (stale / ARTIFACT_NAME).write_text(json.dumps(data))
        session = Session(corpus=Corpus.open(stale))

        fresh = Calibration.from_dict(healthy)

        def fake_fit(fit_session, config, bootstrap=0):
            # A stale-refusing query here is exactly the bug.
            fit_session.query(list(probes[:1]), k=3)
            return fresh

        import repro.eval.runner as runner
        monkeypatch.setattr(runner, "fit_session_calibration", fake_fit)
        artifact = session.calibrate(save=False)
        assert artifact is fresh
        # Later queries in the same session use the refit artifact.
        result = session.query(list(probes[:1]), k=3)[0]
        assert all(m.probability is not None for m in result)

    def test_served_probabilities_bit_identical(self, calibrated_index):
        root, probes, _ = calibrated_index
        suspects = [[float(v) for v in p] for p in probes[:6]]

        async def scenario():
            inproc = ReproServer(Session(corpus=Corpus.open(root)),
                                 port=0)
            pooled = ReproServer(Session(corpus=Corpus.open(root)),
                                 port=0, workers=2)
            await inproc.start()
            await pooled.start()
            try:
                a = AsyncClient(port=inproc.port)
                b = AsyncClient(port=pooled.port)
                ra = await a.query(vectors=suspects, k=5)
                rb = await b.query(vectors=suspects, k=5)
            finally:
                await inproc.stop()
                await pooled.stop()
            return ra, rb

        ra, rb = asyncio.run(scenario())
        assert ra["results"] == rb["results"]
        session = Session(corpus=Corpus.open(root))
        direct = session.query(list(probes[:6]), k=5)
        for served, local in zip(ra["results"], direct):
            for wire, match in zip(served["matches"], local):
                assert wire["probability"] == match.probability
                assert wire["confidence_low"] == match.confidence_low
                assert wire["confidence_high"] == match.confidence_high
                assert wire["verdict"] == match.verdict
