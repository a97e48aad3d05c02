"""End-to-end detection-quality evaluation over the scenario suite.

This is the claim-level harness: it builds (or reuses) a fingerprint
index over a design corpus, generates every adversarial scenario from
:mod:`repro.eval.scenarios`, pushes **all** suspects through one batched
:meth:`~repro.api.facade.Session.query` pass, and scores detection
quality — recall@k, the paper's δ-threshold confusion matrix, AUC — per
scenario and overall, into a stable :class:`~repro.eval.report.EvalReport`.

Three entry points, outermost first:

- :func:`run_evaluation` — everything from a config: train (or load) a
  model, materialize and index the corpus in a work directory, evaluate.
- :func:`evaluate_session` — score an existing
  :class:`~repro.api.facade.Session` (this is what
  ``Session.evaluate(...)`` delegates to).
- :func:`scenario_suite` — just the suspects, for callers that bring
  their own scoring.
"""

import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.api import Detector, IngestConfig, Session
from repro.api import Corpus as ApiCorpus
from repro.core import GNN4IP, Trainer, build_pair_dataset
from repro.core.dataset import GraphRecord
from repro.core.metrics import confusion_from_scores, roc_auc
from repro.designs import (
    get_family,
    materialize_corpus,
    materialize_netlist_corpus,
    netlist_ir_records,
    rtl_records,
)
from repro.errors import CalibrationError, EvalError
from repro.eval.report import EvalReport
from repro.index.chunks import ChunkConfig, extract_chunks
from repro.eval.scenarios import SCENARIOS, ScenarioContext, generate_scenarios

#: The small default corpus: synthesizable families, bench-scale.
DEFAULT_EVAL_FAMILIES = (
    "adder8", "mult4", "cmp8", "prienc8", "barrel8", "counter8",
    "lfsr8", "crc8", "popcount8", "hamdec74", "mux8", "updown4",
)

#: Synthesizable families kept out of the corpus: negatives + graft hosts.
DEFAULT_HOLDOUT_FAMILIES = ("satadd8", "bin2gray8", "dec3to8")

#: Extra never-indexed families feeding only the ``unrelated`` scenario.
#: They widen the negative pool (FPR resolution for calibration) without
#: touching any pirated suspect.  ``absdiff8`` and ``shiftreg8`` are
#: deliberately *not* here: their cores genuinely overlap corpus
#: arithmetic (an adder inside absdiff, a plain register chain), so they
#: sit inside the positive score range — keep them as an adversarial
#: stress option, not a default negative.
DEFAULT_NEGATIVE_FAMILIES = ("addsub8", "parity16", "gray2bin8",
                             "hamenc74")


@dataclass
class EvalConfig:
    """Scale and threat-model knobs for one evaluation run.

    The defaults are the "small default corpus" configuration: the one
    ``gnn4ip eval`` runs out of the box, ``benchmarks/bench_eval.py``
    enforces the detection floor on, and CI's eval-smoke job executes.
    """

    level: str = "netlist"
    families: tuple = DEFAULT_EVAL_FAMILIES
    holdouts: tuple = DEFAULT_HOLDOUT_FAMILIES
    corpus_instances: int = 4
    suspects_per_design: int = 2
    scenarios: tuple = None          # None -> every registered scenario
    recall_ks: tuple = (1, 5, 10)
    seed: int = 2
    epochs: int = 80                 # 0 -> untrained (needs allow_untrained)
    train_instances: int = 5
    #: Theft fractions swept by partial_theft (one suspect grid each).
    #: A bare float is accepted and normalized to a 1-tuple.
    theft_fractions: tuple = (0.3, 0.6)
    #: Augment training with (subgraph chunk, whole design) pairs so the
    #: encoder embeds a design's parts near the design itself — the
    #: relation chunk-level partial-theft serving scores against.
    chunk_training: bool = True
    check_equivalence: bool = True
    equivalence_checks: int = 2
    equivalence_vectors: int = 24
    baselines: tuple = ()            # e.g. ("wl_kernel", "spectral")
    allow_untrained: bool = False
    jobs: int = None
    #: Extra never-indexed families feeding only the unrelated scenario
    #: (negative pool for calibration; pirated suspects untouched).
    negative_families: tuple = DEFAULT_NEGATIVE_FAMILIES
    #: Unrelated variants per negative/holdout family (None falls back
    #: to ``suspects_per_design``).
    negatives_per_design: int = 4
    #: Fit the calibrated decision layer and report stratified
    #: out-of-fold ECE / F1 / FPR / FNR next to the raw-delta confusion.
    calibration: bool = True
    #: Pair-tier method: ``platt`` or ``isotonic`` (the match tier's
    #: two-stage logistic is method-independent).
    calibration_method: str = "platt"
    calibration_folds: int = 4
    calibration_seed: int = 0
    #: Mined hard negatives per training record (0 = off; training is
    #: bit-identical to the unmined run).
    hard_negatives: int = 0
    #: Fine-tuning epochs for the mined-pair phase.
    hard_negative_epochs: int = 20

    def __post_init__(self):
        if self.level not in ("rtl", "netlist"):
            raise EvalError(f"unknown evaluation level {self.level!r}")
        self.families = tuple(self.families)
        self.holdouts = tuple(self.holdouts)
        self.negative_families = tuple(self.negative_families)
        if self.scenarios is not None:
            self.scenarios = tuple(self.scenarios)
        self.recall_ks = tuple(sorted(int(k) for k in self.recall_ks))
        self.baselines = tuple(self.baselines)
        if isinstance(self.theft_fractions, (int, float)):
            self.theft_fractions = (self.theft_fractions,)
        self.theft_fractions = tuple(float(f)
                                     for f in self.theft_fractions)
        if self.calibration_method not in ("platt", "isotonic"):
            raise EvalError(f"unknown calibration method "
                            f"{self.calibration_method!r}; "
                            f"known: platt, isotonic")

    def as_dict(self):
        data = asdict(self)
        data["scenarios"] = (list(self.scenarios)
                             if self.scenarios is not None else None)
        for key in ("families", "holdouts", "recall_ks", "baselines",
                    "theft_fractions", "negative_families"):
            data[key] = list(data[key])
        return data


def train_eval_model(config, verbose=False):
    """Train a detection model on the evaluation families.

    Returns a :class:`~repro.core.gnn4ip.GNN4IP` at ``config.level``;
    with ``epochs=0`` the untrained model is returned only behind the
    explicit ``allow_untrained`` opt-in (scores are noise otherwise).
    """
    if config.epochs <= 0 and not config.allow_untrained:
        raise EvalError("epochs=0 means an untrained model; opt in with "
                        "allow_untrained=True (or pass a trained model)")
    model = GNN4IP(seed=config.seed, featurizer=config.level)
    if config.epochs <= 0:
        return model
    if config.level == "netlist":
        records = netlist_ir_records(
            families=list(config.families),
            instances_per_design=config.train_instances, seed=config.seed)
    else:
        records = rtl_records(
            families=list(config.families),
            instances_per_design=config.train_instances, seed=config.seed)
    dataset = build_pair_dataset(records, seed=config.seed)
    trainer = Trainer(model, seed=config.seed)
    if not config.chunk_training:
        trainer.fit(dataset, epochs=config.epochs, verbose=verbose)
        _hard_negative_phase(trainer, dataset, config,
                             list(dataset.train_pairs), verbose=verbose)
        return model
    # Multi-granularity training: add (chunk, whole) pairs, but keep the
    # original whole-graph train pairs as the delta calibration set —
    # the decision boundary stays a whole-design boundary.
    whole_train = list(dataset.train_pairs)
    augment_with_chunk_pairs(dataset, seed=config.seed)
    trainer.fit(dataset, epochs=config.epochs, tune_delta=False,
                verbose=verbose)
    similarities, labels, _ = trainer.evaluate_pairs(dataset, whole_train)
    model.tune_delta(similarities, labels)
    _hard_negative_phase(trainer, dataset, config, whole_train,
                         verbose=verbose)
    return model


def _hard_negative_phase(trainer, dataset, config, delta_pairs,
                         verbose=False):
    """Optional mined-negative fine-tune after the main fit.

    With ``config.hard_negatives=0`` (the default) this is a no-op and
    the trained model is bit-identical to the unmined run.  Otherwise
    the corpus is embedded under the *trained* model, the nearest
    non-matching pairs are mined (:func:`repro.calib.negatives.
    mine_hard_negatives`), a short fine-tune runs with those pairs
    appended to the loss, and delta is re-tuned on ``delta_pairs``.
    """
    if not config.hard_negatives or config.hard_negative_epochs <= 0:
        return 0
    from repro.calib.negatives import mine_hard_negatives

    mined = mine_hard_negatives(dataset.records, trainer.model,
                                per_record=config.hard_negatives)
    if not mined:
        return 0
    if verbose:
        print(f"hard negatives: fine-tuning on {len(mined)} mined pairs "
              f"({config.hard_negative_epochs} epochs)")
    trainer.fit(dataset, epochs=config.hard_negative_epochs,
                tune_delta=False, verbose=verbose, extra_pairs=mined)
    similarities, labels, _ = trainer.evaluate_pairs(dataset, delta_pairs)
    trainer.model.tune_delta(similarities, labels)
    return len(mined)


def augment_with_chunk_pairs(dataset, seed=0, per_instance=2,
                             positives_per_chunk=2, negative_ratio=3.0):
    """Extend a pair dataset with (subgraph chunk, whole design) pairs.

    The serving side scores suspect *parts* against stored design and
    chunk rows (``FingerprintIndex.suspect_parts``), so the encoder must
    map a design's subgraphs near the design's own embedding cluster —
    a relation plain whole-graph training never exercises, leaving chunk
    embeddings saturated and undiscriminative.  For each record, up to
    ``per_instance`` chunks (under the index's default
    :class:`~repro.index.chunks.ChunkConfig`, so training granularity
    matches serving granularity) are added as extra records labeled with
    the parent's design; each gets similar pairs against sampled wholes
    of the same design and ``negative_ratio`` times as many different
    pairs against other designs' wholes.  Records too small to chunk
    contribute nothing, so tiny unit-test corpora are unaffected.

    Only ``train_pairs`` grows — the test split and any external delta
    calibration stay whole-graph-only.
    """
    rng = np.random.default_rng(seed)
    chunk_config = ChunkConfig()
    base = len(dataset.records)
    by_design = {}
    for i, record in enumerate(dataset.records):
        by_design.setdefault(record.design, []).append(i)
    extra_records, extra_pairs = [], []
    for i in range(base):
        record = dataset.records[i]
        chunks = extract_chunks(record.graph, chunk_config)[:per_instance]
        for index, (members, region) in enumerate(chunks):
            sub = record.graph.subgraph(members.tolist())
            sub.name = f"{record.graph.name}#{region['kind']}{index}"
            ci = base + len(extra_records)
            extra_records.append(GraphRecord(
                design=record.design, instance=sub.name, graph=sub,
                kind=record.kind))
            same = by_design[record.design]
            pos = rng.choice(same, size=min(positives_per_chunk,
                                            len(same)), replace=False)
            others = [j for design, members in by_design.items()
                      if design != record.design for j in members]
            neg = rng.choice(others,
                             size=min(int(round(negative_ratio * len(pos))),
                                      len(others)), replace=False)
            extra_pairs.extend((ci, int(j), 1) for j in pos)
            extra_pairs.extend((ci, int(j), -1) for j in neg)
    dataset.records.extend(extra_records)
    dataset.train_pairs.extend(extra_pairs)
    return len(extra_records)


def build_eval_corpus(workdir, config, detector):
    """Materialize the IP library under ``workdir`` and index it.

    RTL-level corpora are the rewritten RTL instances
    (:func:`~repro.designs.corpus.materialize_corpus`); netlist-level
    corpora are synthesized-plus-obfuscated structural netlists
    (:func:`~repro.designs.corpus.materialize_netlist_corpus`).

    Returns:
        (corpus, build_report)
    """
    workdir = Path(workdir)
    if config.level == "netlist":
        paths = materialize_netlist_corpus(
            workdir / "corpus", families=list(config.families),
            instances_per_design=config.corpus_instances, seed=config.seed)
    else:
        paths = materialize_corpus(
            workdir / "corpus", families=list(config.families),
            instances_per_design=config.corpus_instances, seed=config.seed)
    return ApiCorpus.build(workdir / "index", paths, detector,
                           IngestConfig(level=config.level,
                                        jobs=config.jobs))


def scenario_suite(config, families=None):
    """Generate the full suspect list for a config (no scoring).

    Args:
        families: restrict to these corpus families (default:
            ``config.families``).  Offsets into the corpus seeding
            scheme always come from ``config.families``' original
            positions, so a filtered subset still regenerates exactly
            the design instances the corpus indexed.
    """
    families = tuple(families if families is not None
                     else config.families)
    configured = list(config.families)
    offsets = {name: configured.index(name) for name in families
               if name in configured}
    offsets.update({name: len(configured) + i
                    for i, name in enumerate(config.holdouts)})
    offsets.update({name: len(configured) + len(config.holdouts) + i
                    for i, name in enumerate(config.negative_families)})
    # Families outside the configured list (direct callers) go after.
    for name in families:
        offsets.setdefault(name, len(configured) + len(config.holdouts)
                           + len(offsets))
    ctx = ScenarioContext(
        families=families,
        holdouts=config.holdouts, seed=config.seed,
        suspects_per_design=config.suspects_per_design,
        theft_fractions=config.theft_fractions,
        check_equivalence=config.check_equivalence,
        equivalence_checks=config.equivalence_checks,
        equivalence_vectors=config.equivalence_vectors,
        corpus_scheme=config.level,
        offsets=offsets,
        negative_families=config.negative_families,
        negatives_per_design=config.negatives_per_design)
    return generate_scenarios(ctx, config.scenarios)


# -- metric assembly ----------------------------------------------------------
def _truth_rank(result, true_design):
    """1-based rank of the first hit for the true design, or ``None``."""
    for rank, match in enumerate(result, 1):
        if match.design == true_design:
            return rank
    return None


def _recall_at_k(rows, ks):
    """{str(k): fraction of pirated rows whose truth ranked <= k}."""
    pirated = [row for row in rows if row["pirated"]]
    if not pirated:
        return {str(k): None for k in ks}
    return {str(k): sum(1 for row in pirated
                        if row["rank"] is not None and row["rank"] <= k)
            / len(pirated)
            for k in ks}


def _scenario_metrics(name, rows, negative_scores, delta, ks):
    """Metric block for one scenario's result rows."""
    scores = [row["score"] for row in rows]
    pirated = [row for row in rows if row["pirated"]]
    metrics = {
        "description": SCENARIOS[name].description,
        "semantics_preserving": SCENARIOS[name].semantics_preserving,
        "suspects": len(rows),
        "pirated": len(pirated),
        "recall_at_k": _recall_at_k(rows, ks),
        "mean_top1_score": (sum(scores) / len(scores) if scores else None),
    }
    # Partial theft sweeps several fractions; break recall down per
    # fraction so the floor "recall@10 at fraction >= 0.3" is checkable.
    fractions = sorted({row["provenance"].get("fraction") for row in rows}
                       - {None})
    if fractions:
        metrics["recall_by_fraction"] = {
            f"{fraction:g}": _recall_at_k(
                [row for row in rows
                 if row["provenance"].get("fraction") == fraction], ks)
            for fraction in fractions}
    metrics.update({
        "suspect_results": [
            {"name": row["name"], "true_design": row["true_design"],
             "pirated": row["pirated"], "rank": row["rank"],
             "top1_score": row["score"], "top1_design": row["top1_design"],
             "provenance": row["provenance"]}
            for row in rows],
    })
    if pirated:
        metrics["detection_rate"] = (
            sum(1 for row in pirated if row["score"] > delta) / len(pirated))
        metrics["identification_rate"] = (
            sum(1 for row in pirated if row["rank"] == 1) / len(pirated))
        # AUC of this scenario's positives against the shared negatives.
        metrics["auc"] = roc_auc(
            [row["score"] for row in pirated] + negative_scores,
            [1] * len(pirated) + [0] * len(negative_scores))
    else:
        metrics["false_alarm_rate"] = (
            sum(1 for row in rows if row["score"] > delta) / len(rows)
            if rows else None)
    checks = [row["provenance"].get("equivalence") for row in rows]
    checks = [c for c in checks if c]
    if checks:
        metrics["equivalence"] = {
            "checked": len(checks),
            "passed": sum(1 for c in checks if c["equivalent"]),
            "vectors": checks[0]["vectors"],
        }
    return metrics


def _baseline_metrics(name, suspects, rows, corpus_graphs, delta, ks):
    """Score one classical baseline over the same suspects and corpus.

    The baseline ranks every corpus graph per suspect with its own
    similarity; failures (missing optional deps) are reported, not
    raised.
    """
    try:
        if name == "wl_kernel":
            from repro.baselines.wl_kernel import wl_similarity as similarity
        elif name == "spectral":
            from repro.baselines.spectral import (
                spectral_similarity as similarity,
            )
        else:
            raise EvalError(f"unknown baseline {name!r}; "
                            f"known: wl_kernel, spectral")
    except ImportError as exc:
        return {"error": f"unavailable ({exc})"}
    out_rows = []
    for suspect, row in zip(suspects, rows):
        scored = sorted(
            ((similarity(row["graph"], graph), design)
             for design, graph in corpus_graphs),
            key=lambda pair: -pair[0])
        rank = None
        for position, (_, design) in enumerate(scored, 1):
            if design == suspect.true_design:
                rank = position
                break
        out_rows.append({"score": scored[0][0] if scored else 0.0,
                         "rank": rank, "pirated": suspect.pirated})
    pirated = [row for row in out_rows if row["pirated"]]
    return {
        "recall_at_k": _recall_at_k(out_rows, ks),
        "auc": roc_auc([row["score"] for row in out_rows],
                       [row["pirated"] for row in out_rows]),
        "identification_rate": (
            sum(1 for row in pirated if row["rank"] == 1) / len(pirated)
            if pirated else None),
    }


# -- calibration fitting ------------------------------------------------------
def _calibration_rows(suspects, results, delta):
    """Per-suspect calibration inputs from one batched query pass."""
    from repro.calib import match_evidence

    rows = []
    for suspect, result in zip(suspects, results):
        matches = list(result)
        rows.append({
            "name": suspect.name,
            "scenario": suspect.scenario,
            "pirated": bool(suspect.pirated),
            "evidence": match_evidence(matches, delta),
            "labels": np.array(
                [1.0 if (suspect.pirated
                         and m.design == suspect.true_design) else 0.0
                 for m in matches]),
            "top1": (float(matches[0].score) if matches else -1.0),
        })
    return rows


def _calibration_folds(rows, folds, seed):
    """Stratified fold assignment: suspects are grouped by
    ``(scenario, pirated)``, each group seeded-shuffled and dealt
    round-robin, so every fold sees every scenario and both classes."""
    rng = np.random.default_rng(seed)
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault((row["scenario"], row["pirated"]), []).append(i)
    assignment = [[] for _ in range(folds)]
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda i: rows[i]["name"])
        rng.shuffle(members)
        for position, i in enumerate(members):
            assignment[position % folds].append(i)
    return assignment


def _calibration_metrics(rows, config, delta):
    """Stratified out-of-fold calibration quality block.

    Every suspect's probability (and the operating threshold applied to
    it) comes from a calibrator that never saw that suspect — the
    honest estimate of deployed behavior, reported next to the raw
    delta-cut confusion.
    """
    from repro.calib import EvidenceCalibrator
    from repro.calib.report import (
        expected_calibration_error,
        reliability_bins,
        threshold_sweep,
    )

    folds = _calibration_folds(rows, config.calibration_folds,
                               config.calibration_seed)
    probs = np.zeros(len(rows))
    cuts = np.full(len(rows), 0.5)
    for i, fold in enumerate(folds):
        fit_idx = [j for k, members in enumerate(folds) if k != i
                   for j in members]
        calibrator = EvidenceCalibrator.fit(
            [rows[j]["evidence"] for j in fit_idx],
            [rows[j]["labels"] for j in fit_idx],
            [rows[j]["pirated"] for j in fit_idx],
            delta, bootstrap=0, seed=config.calibration_seed)
        for j in fold:
            if len(rows[j]["evidence"]):
                probs[j] = calibrator.probability(rows[j]["evidence"])
            cuts[j] = calibrator.threshold
    labels = np.array([row["pirated"] for row in rows], dtype=float)
    positives = int(labels.sum())
    negatives = len(labels) - positives
    flagged = probs >= cuts
    tp = int((flagged & (labels == 1)).sum())
    fp = int((flagged & (labels == 0)).sum())
    fn = positives - tp
    tn = negatives - fp
    return {
        "method": config.calibration_method,
        "folds": config.calibration_folds,
        "suspects": len(rows),
        "positives": positives,
        "negatives": negatives,
        "ece": expected_calibration_error(probs, labels),
        "f1": 2 * tp / max(2 * tp + fp + fn, 1),
        "fpr": (fp / negatives if negatives else None),
        "fnr": (fn / positives if positives else None),
        "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        "mean_operating_threshold": float(cuts.mean()),
        "reliability_bins": reliability_bins(probs, labels),
        "threshold_sweep": threshold_sweep(probs, labels),
    }


def fit_session_calibration(session, config=None, suspects=None,
                            results=None, bootstrap=32):
    """Fit a persistable :class:`~repro.calib.Calibration` artifact.

    Generates the scenario suite over the corpus' evaluable families
    (unless ``suspects``/``results`` from a prior pass are handed in),
    fits the match tier on the ranked evidence and the pair tier on the
    top-1 scores, and binds the artifact to the corpus' model hash,
    index format, and level.  The caller persists it with
    ``artifact.save(corpus.root)``.

    Raises:
        CalibrationError: too little fit data (< 8 suspects or a
            single class).
        EvalError: no corpus bound or level mismatch.
    """
    from repro.calib import Calibration, EvidenceCalibrator, ScoreCalibrator
    from repro.index.store import FORMAT_VERSION

    config = config if config is not None else EvalConfig()
    families = _evaluable_families(session, config)
    if suspects is None or results is None:
        suspects = scenario_suite(config, families=families)
        results = session.query([s.source for s in suspects],
                                k=max(config.recall_ks),
                                labels=[s.name for s in suspects])
    delta = session.delta
    rows = _calibration_rows(suspects, results, delta)
    pirated = [row["pirated"] for row in rows]
    match_tier = EvidenceCalibrator.fit(
        [row["evidence"] for row in rows],
        [row["labels"] for row in rows],
        pirated, delta, bootstrap=bootstrap,
        seed=config.calibration_seed)
    pair_tier = ScoreCalibrator.fit(
        [row["top1"] for row in rows], pirated,
        method=config.calibration_method, bootstrap=bootstrap,
        seed=config.calibration_seed)
    return Calibration(
        model_hash=session.corpus.model_hash,
        index_format=FORMAT_VERSION,
        level=session.corpus.level,
        delta=delta,
        pair=pair_tier,
        match=match_tier,
        info={"suspects": len(rows),
              "positives": int(sum(pirated)),
              "negatives": int(len(pirated) - sum(pirated)),
              "families": list(families),
              "seed": config.seed})


def _evaluable_families(session, config):
    """The configured families actually present in the session's corpus.

    Raises:
        EvalError: no corpus bound, level mismatch, or no configured
            family present in the corpus.
    """
    if session.corpus is None:
        raise EvalError("evaluation needs a session with a corpus bound")
    if session.corpus.level != config.level:
        raise EvalError(
            f"config evaluates at level {config.level!r} but the corpus "
            f"was built at {session.corpus.level!r}")
    indexed = {entry["design"] for entry in session.corpus.entries
               if entry["status"] == "ok"}
    families = [name for name in config.families
                if get_family(name).top in indexed]
    if not families:
        raise EvalError(
            "none of the configured families appear in the corpus; "
            "evaluation scenarios are generated from registered design "
            "families (see repro.designs)")
    return families


def evaluate_session(session, config=None):
    """Score an existing session against the adversarial scenario suite.

    The session's corpus decides which configured families are evaluable
    (their top modules must appear among the indexed designs); suspects
    are embedded in **one** batched query pass.

    Returns:
        :class:`~repro.eval.report.EvalReport`

    Raises:
        EvalError: no corpus bound, level mismatch, or no configured
            family present in the corpus.
    """
    config = config if config is not None else EvalConfig()
    families = _evaluable_families(session, config)
    indexed = {entry["design"] for entry in session.corpus.entries
               if entry["status"] == "ok"}

    generate_start = time.perf_counter()
    suspects = scenario_suite(config, families=families)
    generate_seconds = time.perf_counter() - generate_start

    k_max = max(config.recall_ks)
    query_start = time.perf_counter()
    results = session.query([s.source for s in suspects], k=k_max,
                            labels=[s.name for s in suspects])
    query_seconds = time.perf_counter() - query_start

    delta = session.delta
    # Seed every requested scenario so one that generated no suspects
    # (e.g. retime over an all-combinational family set) still reports
    # an explicit empty block instead of silently vanishing.
    rows_by_scenario = {
        name: [] for name in SCENARIOS
        if config.scenarios is None or name in config.scenarios}
    all_rows = []
    for suspect, result in zip(suspects, results):
        row = {
            "name": suspect.name,
            "scenario": suspect.scenario,
            "true_design": suspect.true_design,
            "pirated": suspect.pirated,
            "score": (result[0].score if len(result) else -1.0),
            "top1_design": (result[0].design if len(result) else None),
            "rank": _truth_rank(result, suspect.true_design),
            "provenance": suspect.provenance,
        }
        rows_by_scenario.setdefault(suspect.scenario, []).append(row)
        all_rows.append(row)

    negative_scores = [row["score"] for row in all_rows
                       if not row["pirated"]]
    scenarios = {
        name: _scenario_metrics(name, rows, negative_scores, delta,
                                config.recall_ks)
        for name, rows in rows_by_scenario.items()}
    overall = {
        "suspects": len(all_rows),
        "pirated": sum(1 for row in all_rows if row["pirated"]),
        "recall_at_k": _recall_at_k(all_rows, config.recall_ks),
        "confusion": confusion_from_scores(
            [row["score"] for row in all_rows],
            [row["pirated"] for row in all_rows], delta).as_dict(),
        "auc": roc_auc([row["score"] for row in all_rows],
                       [row["pirated"] for row in all_rows]),
    }
    calibration_seconds = 0.0
    if config.calibration:
        calibration_start = time.perf_counter()
        try:
            overall["calibration"] = _calibration_metrics(
                _calibration_rows(suspects, results, delta), config,
                delta)
        except CalibrationError as exc:
            # A corpus too small to calibrate is a valid evaluation —
            # report why the block is missing instead of failing.
            overall["calibration"] = {"skipped": str(exc)}
        calibration_seconds = time.perf_counter() - calibration_start

    baselines = {}
    baseline_seconds = 0.0
    if config.baselines:
        baseline_start = time.perf_counter()
        frontend = session.corpus.frontend()
        corpus_graphs = []
        for entry in session.corpus.entries:
            if entry["status"] != "ok":
                continue
            graph = frontend.extract_file(entry["path"])
            corpus_graphs.append((graph.name, graph))
        for row, suspect in zip(all_rows, suspects):
            row["graph"] = session.extract(suspect.source)
        baselines = {
            name: _baseline_metrics(name, suspects, all_rows,
                                    corpus_graphs, delta, config.recall_ks)
            for name in config.baselines}
        baseline_seconds = time.perf_counter() - baseline_start

    detector = session.bound_detector
    model_info = {
        "delta": delta,
        "level": session.corpus.level,
        "hash": session.corpus.model_hash,
        # Whether the session's model was actually trained is unknowable
        # here; run_evaluation (which trained or loaded it) overwrites
        # this, and render_text only flags an explicit False.
        "trained": None,
    }
    if detector is not None:
        model_info["hash"] = detector.fingerprint_hash
    corpus_info = {
        "designs": len(indexed),
        "entries": len(session.corpus),
        "level": session.corpus.level,
        "families": families,
        "holdouts": list(config.holdouts),
    }
    return EvalReport(
        config=config.as_dict(), corpus=corpus_info, model=model_info,
        scenarios=scenarios, overall=overall, baselines=baselines,
        timings={"generate_seconds": generate_seconds,
                 "query_seconds": query_seconds,
                 "baseline_seconds": baseline_seconds,
                 "calibration_seconds": calibration_seconds})


def run_evaluation(config=None, workdir=None, model=None, verbose=False):
    """The one-call evaluation: model + corpus + scenario suite + report.

    Args:
        config: an :class:`EvalConfig` (default: the small default
            corpus configuration).
        workdir: directory for the materialized corpus and index
            (reused when it already holds a matching index); a
            temporary directory when ``None``.
        model: path to a trained ``.npz`` model; when ``None`` a model
            is trained per ``config.epochs`` / ``config.seed``.
        verbose: print per-epoch training progress.

    Returns:
        :class:`~repro.eval.report.EvalReport`
    """
    config = config if config is not None else EvalConfig()
    timings = {}
    if model is not None:
        detector = Detector.load(model, level=config.level)
        trained = True
    else:
        train_start = time.perf_counter()
        detector = Detector.from_model(train_eval_model(config,
                                                        verbose=verbose))
        timings["train_seconds"] = time.perf_counter() - train_start
        trained = config.epochs > 0

    with tempfile.TemporaryDirectory(prefix="gnn4ip-eval-") as scratch:
        build_start = time.perf_counter()
        corpus, _ = build_eval_corpus(workdir if workdir is not None
                                      else scratch, config, detector)
        timings["build_seconds"] = time.perf_counter() - build_start
        session = Session(detector=detector, corpus=corpus)
        report = evaluate_session(session, config)
    report.model["trained"] = trained
    report.timings.update(timings)
    return report
