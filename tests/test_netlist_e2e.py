"""End-to-end netlist workload: RTL -> synth -> netlist IR -> index/CLI."""

import numpy as np
import pytest

from repro.api import Corpus, Detector, Session
from repro.cli import main
from repro.core import GNN4IP, Trainer, build_pair_dataset
from repro.designs import materialize_corpus, netlist_ir_records
from repro.errors import ModelError
from repro.index import FingerprintIndex, IngestConfig, ingest_corpus

FAMILIES = ("adder8", "cmp8", "mux8")


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("netlist_corpus")
    return materialize_corpus(root, families=list(FAMILIES),
                              instances_per_design=2, seed=0)


class TestNetlistIndex:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory, corpus_paths):
        root = tmp_path_factory.mktemp("netlist_index")
        model = GNN4IP(seed=0, featurizer="netlist")
        index, report = ingest_corpus(root, corpus_paths, model,
                                      IngestConfig(level="netlist", jobs=1),
                                      fresh=True)
        return index, report, model

    def test_builds_at_netlist_level(self, built, corpus_paths):
        index, report, _ = built
        assert index.level == "netlist"
        assert report["failures"] == 0
        assert len(index) == len(corpus_paths)

    def test_top1_self_match(self, built, corpus_paths):
        """RTL design -> synth -> netlist IR -> index -> top-1 self-match.

        Instances of one family can synthesize to *identical* netlists
        (RTL rewrites vanish under bit-blasting), so the top hit is pinned
        to the design family rather than the exact file, at score ~1.
        """
        index, _, model = built
        for path in corpus_paths:
            graph = index.frontend().extract_file(path)
            (hits,) = Session(detector=Detector.from_model(model),
                              corpus=Corpus(index)).query([graph], k=1)
            assert hits[0].design == graph.name
            # Stored rows are float32-normalized; a self-match is 1.0
            # within float32 epsilon, not float64.
            assert hits[0].score == pytest.approx(1.0, abs=1e-6)
            assert hits[0].is_piracy

    def test_level_mismatch_refused(self, tmp_path, corpus_paths):
        with pytest.raises(ModelError):
            ingest_corpus(tmp_path / "idx", corpus_paths, GNN4IP(seed=0),
                          IngestConfig(level="netlist", jobs=1), fresh=True)

    def test_warm_rebuild_hits_cache(self, built, corpus_paths):
        index, _, model = built
        _, warm = ingest_corpus(index.root, corpus_paths, model,
                                IngestConfig(level="netlist", jobs=1),
                                fresh=True)
        assert warm["cache"]["misses"] == 0
        assert warm["embeddings_reused"] == len(corpus_paths)

    def test_loaded_index_remembers_level(self, built):
        index, _, _ = built
        assert FingerprintIndex.load(index.root).level == "netlist"


class TestNetlistCli:
    def test_index_build_and_query(self, tmp_path, corpus_paths, capsys):
        index_dir = tmp_path / "idx"
        code = main(["index", "build", str(index_dir)]
                    + [str(p) for p in corpus_paths]
                    + ["--level", "netlist", "--allow-untrained"])
        assert code == 0
        assert "level netlist" in capsys.readouterr().out

        code = main(["index", "query", str(index_dir),
                     str(corpus_paths[0]), "-k", "1"])
        out = capsys.readouterr().out
        assert "+1.0000" in out
        assert code == 2  # self-match flags piracy

    def test_compare_level_netlist(self, corpus_paths, capsys):
        code = main(["compare", str(corpus_paths[0]), str(corpus_paths[0]),
                     "--level", "netlist", "--allow-untrained"])
        assert code == 2
        assert "+1.0000" in capsys.readouterr().out

    def test_compare_rejects_mismatched_index_level(self, tmp_path,
                                                    corpus_paths, capsys):
        index_dir = tmp_path / "rtl_idx"
        assert main(["index", "build", str(index_dir),
                     str(corpus_paths[0]), "--allow-untrained"]) == 0
        capsys.readouterr()
        code = main(["compare", str(corpus_paths[0]), str(corpus_paths[0]),
                     "--index", str(index_dir), "--level", "netlist"])
        assert code == 1
        assert "built at --level rtl" in capsys.readouterr().err


class TestNetlistTraining:
    def test_netlist_model_separates_designs(self):
        records = netlist_ir_records(families=list(FAMILIES),
                                     instances_per_design=3, seed=0)
        assert all(r.graph.level == "netlist" for r in records)
        dataset = build_pair_dataset(records, seed=0)
        model = GNN4IP(seed=0, featurizer="netlist")
        trainer = Trainer(model, seed=0)
        trainer.fit(dataset, epochs=10)
        result = trainer.test(dataset)
        sims = np.array(result["similarities"])
        labels = np.array(result["labels"])
        if labels.min() != labels.max():
            assert sims[labels == 1].mean() > sims[labels == 0].mean()

    def test_cli_train_netlist_saves_model(self, tmp_path, capsys):
        path = tmp_path / "net.npz"
        code = main(["train", "--level", "netlist",
                     "--families", "adder8", "cmp8",
                     "--instances", "2", "--epochs", "2",
                     "--save", str(path)])
        assert code == 0
        assert path.exists()
        from repro.core import load_model

        assert load_model(path).encoder.featurizer.level == "netlist"
