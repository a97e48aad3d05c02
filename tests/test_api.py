"""Public facade contract: configs, typed results, and error paths.

Covers the satellite error paths the facade must make loud: no silent
untrained models, wrong ``level`` vs the model featurizer, v2 index
refusal through ``Corpus.open``, and querying an empty index.
"""

import json

import numpy as np
import pytest

from repro.api import (
    ORIGIN_CACHE,
    ORIGIN_EXTRACTED,
    ORIGIN_INDEX,
    Corpus,
    Detector,
    DetectorConfig,
    IngestConfig,
    Session,
)
from repro.cli import main
from repro.core import GNN4IP, save_model
from repro.errors import GraphIRError, IndexStoreError, ModelError
from repro.index.service import EmbeddingService

ADDER = """
module adder(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule
"""

MUX = """
module mux(input [7:0] d, input [2:0] sel, output q);
  assign q = d[sel];
endmodule
"""

EMPTY = "module m(); endmodule"

XOR_CHAIN = """
module xchain(input [3:0] a, input [3:0] b, output x);
  assign x = ^(a ^ b);
endmodule
"""


def zero_rows_named(name):
    """An ``EmbeddingService.embed_graphs`` that maps every part of the
    design called ``name`` to the zero vector."""
    embed = EmbeddingService.embed_graphs

    def embed_graphs(service, graphs):
        rows = embed(service, graphs)
        rows[[g.name == name for g in graphs]] = 0.0
        return rows

    return embed_graphs


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "adder.v").write_text(ADDER)
    (root / "mux.v").write_text(MUX)
    return root


@pytest.fixture
def detector():
    return Detector.from_model(GNN4IP(seed=0))


@pytest.fixture
def built(tmp_path, corpus_dir, detector):
    corpus, report = Corpus.build(tmp_path / "idx",
                                  sorted(corpus_dir.glob("*.v")),
                                  detector, IngestConfig(jobs=1))
    assert report["failures"] == 0
    return corpus


class TestDetectorConfig:
    def test_no_model_refused(self):
        with pytest.raises(ModelError, match="allow_untrained"):
            Detector.from_config(DetectorConfig())

    def test_missing_model_file_raises(self, tmp_path):
        with pytest.raises(ModelError, match="not found"):
            Detector.load(tmp_path / "absent.npz")

    def test_level_conflicts_with_model_featurizer(self, tmp_path):
        path = tmp_path / "rtl.npz"
        save_model(GNN4IP(seed=0), path)
        with pytest.raises(ModelError, match="trained at level 'rtl'"):
            Detector.load(path, level="netlist")

    def test_untrained_is_explicit(self):
        detector = Detector.untrained(level="netlist", seed=3)
        assert detector.level == "netlist"

    def test_delta_override(self, tmp_path):
        path = tmp_path / "m.npz"
        save_model(GNN4IP(seed=0, delta=0.5), path)
        assert Detector.load(path, delta=0.25).delta == pytest.approx(0.25)


class TestDetector:
    def test_fingerprint_source_forms_agree(self, corpus_dir, detector):
        from_path = detector.fingerprint(corpus_dir / "adder.v")
        from_text = detector.fingerprint(ADDER)
        from_graph = detector.fingerprint(
            detector.frontend().extract(ADDER))
        np.testing.assert_allclose(from_path.vector, from_text.vector)
        np.testing.assert_allclose(from_path.vector, from_graph.vector)
        assert from_path.key == from_text.key
        assert from_graph.key is None  # raw graphs have no content key
        assert from_path.design == "adder"
        assert from_path.label == str(corpus_dir / "adder.v")

    def test_compare_identical_is_piracy(self, detector):
        comparison = detector.compare(ADDER, ADDER)
        assert comparison.score == pytest.approx(1.0)
        assert comparison.is_piracy
        assert comparison.verdict == "PIRACY"

    def test_results_serialize_to_json(self, detector):
        fingerprint = detector.fingerprint(ADDER)
        comparison = detector.compare(ADDER, MUX)
        payload = json.dumps({"fp": fingerprint.as_dict(),
                              "cmp": comparison.as_dict()})
        decoded = json.loads(payload)
        assert decoded["fp"]["design"] == "adder"
        assert isinstance(decoded["cmp"]["score"], float)


class TestCorpus:
    def test_open_missing_index(self, tmp_path):
        with pytest.raises(IndexStoreError, match="index build"):
            Corpus.open(tmp_path / "nope")

    def test_v2_index_refused_via_open(self, built):
        meta_path = built.root / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 2
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(IndexStoreError, match="index migrate"):
            Corpus.open(built.root)

    def test_empty_index_query_raises(self, tmp_path, detector):
        broken = tmp_path / "broken.v"
        broken.write_text("module oops(endmodule")
        corpus, report = Corpus.build(tmp_path / "empty_idx", [broken],
                                      detector, IngestConfig(jobs=1))
        assert report["embedded"] == 0
        assert len(corpus) == 0
        session = Session(detector=detector, corpus=corpus)
        with pytest.raises(IndexStoreError, match="empty"):
            session.query([ADDER], k=1)

    def test_query_returns_ranked_matches(self, built, detector):
        graph = built.frontend().extract(ADDER)
        (result,) = built.query([graph], k=2, detector=detector)
        assert [match.rank for match in result] == [1, 2]
        assert result[0].design == "adder"
        assert result[0].score == pytest.approx(1.0, abs=1e-6)
        assert result[0].as_dict()["rank"] == 1

    def test_serving_description_exact(self, built):
        assert built.serving_description() == "exact"
        assert built.serving_description(exact=True) == "exact"


class TestSession:
    def test_needs_detector_or_corpus(self):
        with pytest.raises(ValueError):
            Session()

    def test_level_mismatch_refused(self, built):
        netlist_detector = Detector.untrained(level="netlist")
        with pytest.raises(ModelError, match="level"):
            Session(detector=netlist_detector, corpus=built)

    def test_fingerprint_origin_ladder(self, built, detector, tmp_path):
        session = Session(detector=detector, corpus=built)
        assert session.fingerprint(ADDER).origin == ORIGIN_INDEX
        fresh = tmp_path / "fresh.v"
        fresh.write_text(XOR_CHAIN)
        assert session.fingerprint(fresh).origin == ORIGIN_EXTRACTED
        # The extraction landed in the index's graph cache.
        assert session.fingerprint(fresh).origin == ORIGIN_CACHE

    def test_foreign_model_skips_index_reuse(self, built):
        session = Session(detector=Detector.from_model(GNN4IP(seed=9)),
                          corpus=built)
        assert session.fingerprint(ADDER).origin != ORIGIN_INDEX

    def test_query_vectors(self, built, detector):
        session = Session(detector=detector, corpus=built)
        vector = session.fingerprint(ADDER).vector
        (result,) = session.query([vector], k=1)
        assert result[0].design == "adder"

    def test_query_refuses_zero_vector(self, built, detector):
        # A zero vector scores 0.0 against every row: it would rank
        # arbitrarily and never flag a design.
        session = Session(detector=detector, corpus=built)
        vector = session.fingerprint(ADDER).vector
        with pytest.raises(IndexStoreError, match="all zero"):
            session.query([vector, np.zeros_like(vector)], k=1)
        assert session.query([], k=1) == []

    def test_query_refuses_suspect_that_embeds_to_zero(
            self, built, detector, monkeypatch):
        # The model maps "mux" to the zero vector: ranking it would score
        # 0.0 against every design and flag nothing.
        monkeypatch.setattr(EmbeddingService, "embed_graphs",
                            zero_rows_named("mux"))
        session = Session(detector=detector, corpus=built)
        with pytest.raises(ModelError, match="zero embedding for mux"):
            session.query([ADDER, MUX], k=1)
        (result,) = session.query([ADDER], k=1)
        assert result[0].design == "adder"

    def test_query_rejects_mixed_suspects(self, built, detector):
        session = Session(detector=detector, corpus=built)
        vector = session.fingerprint(ADDER).vector
        with pytest.raises(TypeError, match="mix"):
            session.query([vector, ADDER])

    def test_allow_paths_false_treats_strings_as_source(self, built,
                                                        detector,
                                                        corpus_dir):
        from repro.errors import ReproError

        session = Session(detector=detector, corpus=built)
        path = str(corpus_dir / "adder.v")
        assert session.fingerprint(path).design == "adder"
        with pytest.raises(ReproError):  # parsed as (broken) source text
            session.fingerprint(path, allow_paths=False)
        with pytest.raises(TypeError):
            session.fingerprint(corpus_dir / "adder.v", allow_paths=False)

    def test_long_one_line_source_is_not_a_path(self, built, detector):
        # Longer than any filename the filesystem allows: probing it as
        # a path raises ENAMETOOLONG, so it must be taken as source.
        ports = ", ".join(f"input a{i}" for i in range(40))
        source = (f"module wide({ports}, output y); "
                  f"assign y = a0 & a39; endmodule")
        assert len(source) > 300 and "\n" not in source
        assert detector.fingerprint(source).design == "wide"
        session = Session(detector=detector, corpus=built)
        (result,) = session.query([source], k=1)
        assert len(result) == 1

    def test_vector_delta_is_call_order_independent(self, tmp_path,
                                                    corpus_dir):
        detector = Detector.from_model(GNN4IP(seed=0, delta=2.0))
        corpus, _ = Corpus.build(tmp_path / "delta_idx",
                                 sorted(corpus_dir.glob("*.v")),
                                 detector, IngestConfig(jobs=1))
        session = Session.open(corpus.root)  # no detector bound yet
        vector = Detector.from_model(GNN4IP(seed=0)).fingerprint(
            ADDER).vector
        (result,) = session.query([vector], k=1)
        # Judged against the stored model's delta (2.0), not 0.0.
        assert result[0].score == pytest.approx(1.0, abs=1e-6)
        assert not result[0].is_piracy

    def test_empty_design_is_a_graph_error(self, built, detector):
        session = Session(detector=detector, corpus=built)
        with pytest.raises(GraphIRError, match="empty"):
            session.query([EMPTY], k=1)
        with pytest.raises(GraphIRError, match="empty"):
            session.fingerprint(EMPTY)
        # The session still answers well-formed suspects afterwards.
        (result,) = session.query([ADDER], k=1)
        assert result[0].design == "adder"

    def test_ingest_records_empty_design_as_failure(self, tmp_path,
                                                   corpus_dir, detector):
        from repro.index.ingest import IngestConfig

        (corpus_dir / "hollow.v").write_text(EMPTY)
        corpus, report = Corpus.ingest(tmp_path / "ingested",
                                       sorted(corpus_dir.glob("*.v")),
                                       detector=detector,
                                       config=IngestConfig(jobs=1))
        assert report["failures"] == 1
        assert len(corpus) == 2
        (failed,) = [e for e in corpus.entries if e["status"] == "error"]
        assert failed["error"].startswith("GraphIRError")

    def test_open_uses_corpus_model(self, built):
        session = Session.open(built.root)
        (result,) = session.query([ADDER], k=1)
        assert result[0].design == "adder"
        assert result[0].score == pytest.approx(1.0, abs=1e-6)


class TestCliJson:
    def test_index_query_json(self, built, corpus_dir, capsys):
        code = main(["index", "query", str(built.root),
                     str(corpus_dir / "adder.v"), "-k", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2  # self-match still flags piracy
        assert payload["designs"] == 2
        assert payload["serving"] == "exact"
        (result,) = payload["results"]
        assert result["matches"][0]["design"] == "adder"
        assert result["matches"][0]["rank"] == 1
        assert result["matches"][0]["is_piracy"] is True
