"""Fingerprint index: cache behavior through ingest, extraction, top-k
queries."""

import json

import numpy as np
import pytest

from repro.api import Corpus, Detector, Session
from repro.core import GNN4IP
from repro.errors import GraphIRError, IndexStoreError
from repro.index import (
    DFGCache,
    EmbeddingService,
    FingerprintIndex,
    IngestConfig,
    content_key,
    ingest_corpus,
    model_fingerprint,
)
from repro.ir import serialize as ir_serialize
from repro.ir.frontends import get_frontend

RTL = get_frontend("rtl")


def query_graph(index, graph, model, k=5):
    """``graph``'s hit list from ``index`` through ``Session.query``."""
    session = Session(detector=Detector.from_model(model),
                      corpus=Corpus(index))
    return session.query([graph], k=k)[0].matches

ADDER = """
module adder(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule
"""

SUB = """
module sub(input [3:0] a, input [3:0] b, output [4:0] d);
  assign d = a - b;
endmodule
"""

MUX = """
module mux(input [7:0] d, input [2:0] sel, output q);
  assign q = d[sel];
endmodule
"""

XOR_CHAIN = """
module xchain(input [3:0] a, input [3:0] b, output x);
  assign x = ^(a ^ b);
endmodule
"""

BROKEN = "module oops(input a endmodule"

SOURCES = {"adder.v": ADDER, "sub.v": SUB, "mux.v": MUX,
           "xchain.v": XOR_CHAIN}


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for name, text in SOURCES.items():
        (root / name).write_text(text)
    return root


@pytest.fixture
def corpus_paths(corpus_dir):
    return sorted(corpus_dir.glob("*.v"))


def ingest(root, paths, jobs=1, **options):
    """Fresh ingest (what ``index build`` runs) with an untrained model."""
    return ingest_corpus(root, paths, GNN4IP(seed=0),
                         IngestConfig(jobs=jobs, **options), fresh=True)


def cached_graph(root, entry):
    return DFGCache(root / "cache").load(entry["key"])


def graph_signature(graph):
    """Structure tuple for exact graph comparison."""
    return (graph.name,
            tuple((n.kind, n.label, n.name) for n in graph.nodes),
            tuple((src, dst) for src in range(len(graph))
                  for dst in graph.successors(src)))


class TestSerialize:
    """DFGs go through the one graph codec, :mod:`repro.ir.serialize`."""

    def test_round_trip(self):
        graph = RTL.extract(ADDER)
        again = ir_serialize.from_dict(ir_serialize.to_dict(graph))
        assert graph_signature(again) == graph_signature(graph)

    def test_bytes_round_trip(self):
        graph = RTL.extract(MUX)
        blob = ir_serialize.dumps(graph)
        assert graph_signature(ir_serialize.loads(blob)) == graph_signature(graph)

    def test_corrupt_bytes_raise(self):
        with pytest.raises(GraphIRError, match="corrupt"):
            ir_serialize.loads(b"not a dfg blob")

    def test_bad_version_raises(self):
        payload = ir_serialize.to_dict(RTL.extract(ADDER))
        payload["version"] = 999
        with pytest.raises(GraphIRError, match="version"):
            ir_serialize.from_dict(payload)


class TestContentKey:
    def test_stable(self):
        key = content_key("module m; endmodule", "trim=1")
        assert key == content_key("module m; endmodule", "trim=1")
        assert len(key) == 64

    def test_sensitive_to_source_options_top(self):
        base = content_key("module m; endmodule", "trim=1")
        assert content_key("module n; endmodule", "trim=1") != base
        assert content_key("module m; endmodule", "trim=0") != base
        assert content_key("module m; endmodule", "trim=1", top="m") != base


class TestCache:
    def test_miss_then_hit(self, tmp_path, corpus_paths):
        root = tmp_path / "idx"
        first, cold = ingest(root, corpus_paths)
        assert cold["cache"] == {"hits": 0, "misses": len(corpus_paths)}
        assert not any(e["cached"] for e in first.entries)

        second, warm = ingest(root, corpus_paths)
        assert warm["cache"] == {"hits": len(corpus_paths), "misses": 0}
        assert all(e["cached"] for e in second.entries)
        for a, b in zip(first.entries, second.entries):
            assert (a["key"], a["nodes"], a["edges"]) == \
                (b["key"], b["nodes"], b["edges"])

    def test_corrupt_entry_recovers(self, tmp_path, corpus_paths):
        root = tmp_path / "idx"
        first, _ = ingest(root, corpus_paths)
        victim = first.entries[0]
        before = graph_signature(cached_graph(root, victim))

        # Truncate one blob; the entry must heal on the next run.
        DFGCache(root / "cache").blob_path(victim["key"]).write_bytes(
            b"\x00garbage")
        second, report = ingest(root, corpus_paths)
        assert report["cache"] == {"hits": len(corpus_paths) - 1,
                                   "misses": 1}
        assert not second.entries[0]["cached"]
        assert graph_signature(cached_graph(root, victim)) == before
        # Healed: third run hits everything.
        _, report = ingest(root, corpus_paths)
        assert report["cache"]["hits"] == len(corpus_paths)

    def test_no_cache(self, tmp_path, corpus_paths):
        index, report = ingest(tmp_path / "idx", corpus_paths,
                               use_cache=False)
        assert report["cache"] is None
        assert all(e["status"] == "ok" and not e["cached"]
                   for e in index.entries)
        assert not (tmp_path / "idx" / "cache").exists()

    def test_entry_count_and_bytes(self, tmp_path, corpus_paths):
        index, _ = ingest(tmp_path / "idx", corpus_paths)
        frontend = index.frontend()
        written = sum(len(ir_serialize.dumps(frontend.extract_file(path)))
                      for path in corpus_paths)
        stats = index.stats()
        assert stats["cache_entries"] == len(corpus_paths)
        assert stats["cache_bytes"] == written > 0


class TestIngestExtraction:
    def test_error_isolation(self, tmp_path, corpus_dir):
        (corpus_dir / "broken.v").write_text(BROKEN)
        paths = sorted(corpus_dir.glob("*.v"))
        for jobs in (1, 2):
            index, report = ingest(tmp_path / f"idx{jobs}", paths,
                                   jobs=jobs)
            by_name = {e["name"]: e for e in index.entries}
            assert by_name["broken"]["status"] == "error"
            assert "Error" in by_name["broken"]["error"]
            assert "design" not in by_name["broken"]
            assert report["failures"] == 1
            assert len(index) == len(paths) - 1

    def test_matches_single_file_pipeline(self, tmp_path, corpus_paths):
        root = tmp_path / "idx"
        index, _ = ingest(root, corpus_paths, jobs=2)
        for entry in index.entries:
            direct = RTL.extract_file(entry["path"])
            assert graph_signature(cached_graph(root, entry)) == \
                graph_signature(direct)
            assert (entry["nodes"], entry["edges"]) == \
                (len(direct), direct.num_edges)


class TestModelFingerprint:
    def test_deterministic_and_weight_sensitive(self):
        a = model_fingerprint(GNN4IP(seed=0))
        assert a == model_fingerprint(GNN4IP(seed=0))
        assert a != model_fingerprint(GNN4IP(seed=1))
        assert a != model_fingerprint(GNN4IP(seed=0, hidden=8))

    def test_delta_does_not_affect_fingerprint(self):
        """Embeddings ignore delta, so fingerprints must too — retuning
        the boundary keeps stored embeddings reusable."""
        a = GNN4IP(seed=0)
        b = GNN4IP(seed=0, delta=0.9)
        assert model_fingerprint(a) == model_fingerprint(b)


class TestFingerprintIndex:
    @pytest.fixture
    def built(self, tmp_path, corpus_paths):
        index, report = ingest(tmp_path / "idx", corpus_paths)
        return index, report, index.model()

    def test_build_report(self, built):
        index, report, _ = built
        assert report["embedded"] == len(SOURCES)
        assert report["failures"] == 0
        assert len(index) == len(SOURCES)

    def test_load_round_trip(self, built, tmp_path):
        index, _, _ = built
        loaded = FingerprintIndex.load(tmp_path / "idx")
        np.testing.assert_array_equal(loaded.matrix, index.matrix)
        assert loaded.model_hash == index.model_hash
        assert [e["name"] for e in loaded.entries] == \
            [e["name"] for e in index.entries]

    def test_top_k_matches_brute_force(self, built, corpus_paths):
        """Index scores must equal pairwise model.similarity exactly."""
        index, _, model = built
        for path in corpus_paths:
            suspect = RTL.extract_file(path)
            hits = query_graph(index, suspect, model, k=len(index))
            brute = []
            for other in corpus_paths:
                graph = RTL.extract_file(other)
                brute.append((other.stem, model.similarity(suspect, graph)))
            brute.sort(key=lambda item: -item[1])
            assert [h.name for h in hits] == [name for name, _ in brute]
            # The store keeps unit float32 rows and scores in float32
            # (~1e-7 relative), and cosine_similarity_np adds eps inside
            # the norm product, so scores agree to ~1e-6, not bit-exactly.
            for hit, (_, score) in zip(hits, brute):
                assert hit.score == pytest.approx(score, abs=5e-6)
                assert hit.is_piracy == (hit.score > model.delta)

    def test_query_rejects_foreign_model(self, built):
        index, _, _ = built
        with pytest.raises(IndexStoreError):
            query_graph(index, RTL.extract(ADDER), GNN4IP(seed=7))

    def test_lookup_key(self, built, corpus_paths):
        index, _, model = built
        frontend = index.frontend()
        cleaned = frontend.preprocess_text(corpus_paths[0].read_text())
        key = frontend.content_key(cleaned)
        stored = index.lookup_key(key)
        assert stored is not None
        direct = model.encoder.embed(frontend.extract_file(corpus_paths[0]))
        # v3 stores unit-normalized float32 rows; direction must match.
        unit = direct / np.linalg.norm(direct)
        np.testing.assert_allclose(stored, unit, rtol=1e-6, atol=1e-7)
        assert index.lookup_key("0" * 64) is None

    def test_failures_are_recorded(self, tmp_path, corpus_dir):
        (corpus_dir / "broken.v").write_text(BROKEN)
        paths = sorted(corpus_dir.glob("*.v"))
        index, report = ingest(tmp_path / "idx2", paths)
        assert report["failures"] == 1
        failed = [e for e in index.entries if e["status"] == "error"]
        assert len(failed) == 1
        assert failed[0]["name"] == "broken"
        assert len(index) == len(paths) - 1

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(IndexStoreError):
            FingerprintIndex.load(tmp_path / "nothing")

    def test_load_detects_truncated_shard(self, built, tmp_path):
        root = tmp_path / "idx"
        shard = next((root / "shards").glob("shard-*.f32"))
        shard.write_bytes(shard.read_bytes()[:-8])
        with pytest.raises(IndexStoreError, match="truncated"):
            FingerprintIndex.load(root)

    def test_load_detects_row_count_mismatch(self, built, tmp_path):
        root = tmp_path / "idx"
        meta = json.loads((root / "meta.json").read_text())
        meta["store"]["shards"][0]["rows"] += 1
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IndexStoreError):
            FingerprintIndex.load(root)

    def test_load_detects_entry_without_design_row(self, built, tmp_path):
        root = tmp_path / "idx"
        meta = json.loads((root / "meta.json").read_text())
        design = next(r for r in meta["rows"] if r.get("kind") != "chunk")
        design["name"] = "renamed"
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IndexStoreError, match="no design row"):
            FingerprintIndex.load(root)

    def test_load_detects_design_row_count_mismatch(self, built, tmp_path):
        root = tmp_path / "idx"
        meta = json.loads((root / "meta.json").read_text())
        meta["entries"][0]["status"] = "error"
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IndexStoreError,
                           match="row table lists 4 design rows but the "
                                 "metadata lists 3 embedded entries"):
            FingerprintIndex.load(root)

    def test_load_detects_store_row_count_mismatch(self, built, tmp_path):
        root = tmp_path / "idx"
        meta = json.loads((root / "meta.json").read_text())
        meta["store"]["shards"][0]["rows"] += 1
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IndexStoreError,
                           match="embedding store has 5 rows but the "
                                 "metadata lists 4 rows"):
            FingerprintIndex.load(root)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda meta: [meta], "the top level must be an object, not list"),
        (lambda meta: {k: v for k, v in meta.items() if k != "entries"},
         "'entries' is missing or not a list"),
        (lambda meta: dict(meta, entries=[
            {k: v for k, v in e.items() if k != "status"}
            for e in meta["entries"]]),
         "entry 0 has no 'status'"),
        (lambda meta: dict(meta, rows=5), "'rows' must be a list, not int"),
        (lambda meta: dict(meta, store=[1]),
         "'store' must be an object, not list"),
        (lambda meta: dict(meta, store=dict(meta["store"], shards=[{}])),
         "bad shard specs in 'store': KeyError('rows')"),
        (lambda meta: dict(meta, rows=meta["rows"] + [
            {"kind": "chunk", "parent": "zz", "region": None}]),
         "chunk row 4 names 'zz', which is no embedded entry"),
        (lambda meta: dict(meta, rows=meta["rows"] + [{"kind": "chunk"}]),
         "chunk row 4 has no 'parent'"),
        (lambda meta: dict(meta, entries=[
            {k: v for k, v in e.items() if k != "design"}
            for e in meta["entries"]]),
         "entry 0 has no 'design'"),
    ], ids=["top-level-list", "no-entries", "entry-without-status",
            "rows-not-a-list", "store-not-an-object", "shard-without-rows",
            "chunk-of-no-entry", "chunk-without-parent",
            "entry-without-design"])
    def test_load_refuses_malformed_meta(self, built, tmp_path, corrupt,
                                         message):
        root = tmp_path / "idx"
        meta = json.loads((root / "meta.json").read_text())
        (root / "meta.json").write_text(json.dumps(corrupt(meta)))
        with pytest.raises(IndexStoreError) as info:
            FingerprintIndex.load(root)
        assert str(info.value) == f"corrupt index metadata: {message}"

    def test_first_entry_with_a_key_wins(self, built, tmp_path):
        root = tmp_path / "idx"
        meta = json.loads((root / "meta.json").read_text())
        first, second = meta["entries"][:2]
        second["key"] = first["key"]
        (root / "meta.json").write_text(json.dumps(meta))
        index = FingerprintIndex.load(root)
        assert index.entry_for_key(first["key"]) is index.entries[0]
        row = next(i for i, spec in enumerate(meta["rows"])
                   if spec.get("name") == first["name"])
        np.testing.assert_array_equal(index.lookup_key(first["key"]),
                                      index.matrix[row])

    def test_rows_out_of_entry_order_map_by_name(self, built, tmp_path):
        """The engine and the key lookups read one row map, which maps
        each design row to its entry by name, not by position."""
        root = tmp_path / "idx"
        meta = json.loads((root / "meta.json").read_text())
        meta["entries"][:2] = meta["entries"][1::-1]
        (root / "meta.json").write_text(json.dumps(meta))
        index = FingerprintIndex.load(root)
        for row, spec in enumerate(meta["rows"]):
            entry = next(e for e in meta["entries"]
                         if e["name"] == spec["name"])
            (hits,) = index.engine.query_many(index.matrix[row], k=1)
            assert (hits[0].name, hits[0].path) == (entry["name"],
                                                    entry["path"])
            np.testing.assert_array_equal(index.lookup_key(entry["key"]),
                                          index.matrix[row])

    def test_warm_rebuild_hits_cache(self, built, tmp_path, corpus_paths):
        _, report, model = built
        assert report["cache"]["hits"] == 0
        _, warm = ingest(tmp_path / "idx", corpus_paths)
        assert warm["cache"]["hits"] == len(SOURCES)
        assert warm["cache"]["misses"] == 0

    def test_stats(self, built):
        index, _, _ = built
        stats = index.stats()
        assert stats["entries"] == len(SOURCES)
        assert stats["embedded"] == len(SOURCES)
        assert stats["designs"] == len(SOURCES)
        assert stats["cache_entries"] == len(SOURCES)
        assert stats["hidden"] == 16


class TestEmbeddingService:
    def test_matches_per_graph_embed(self):
        model = GNN4IP(seed=3)
        graphs = [RTL.extract(text) for text in SOURCES.values()]
        service = EmbeddingService(model, batch_size=2)
        batched = service.embed_graphs(graphs)
        single = np.stack([model.encoder.embed(g) for g in graphs])
        np.testing.assert_allclose(batched, single, rtol=1e-9, atol=1e-15)

    def test_embed_one(self):
        model = GNN4IP(seed=3)
        graph = RTL.extract(ADDER)
        np.testing.assert_allclose(
            EmbeddingService(model).embed_one(graph),
            model.encoder.embed(graph), rtol=1e-9, atol=1e-15)

    def test_fingerprint_cached(self):
        service = EmbeddingService(GNN4IP(seed=0))
        assert service.fingerprint == service.fingerprint
        assert service.fingerprint == model_fingerprint(service.model)
