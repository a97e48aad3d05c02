"""Chunk extraction and the multi-granularity (format-v4) index.

Covers the chunking edge cases the partial-theft pipeline depends on:
tiny designs must produce **zero** chunks (so unit-test-scale corpora
keep the single-granularity serving contract bit-for-bit), designs
smaller than the window must emit no window chunks, extraction must be
deterministic across processes (different hash seeds), chunk-level
aggregation must rank parents with locality evidence, a rebuild or
append must copy stored chunked rows bit for bit instead of
re-embedding, and a populated v3 index must survive the in-place
``index migrate`` to v4.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Corpus, Detector, Session
from repro.cli import main
from repro.core import GNN4IP, HW2VEC, GraphSlice
from repro.designs.base import family_names
from repro.designs.corpus import SYNTHESIZABLE_FAMILIES, canonical_variant
from repro.errors import GraphIRError, IndexStoreError, ModelError
from repro.index import (
    ChunkConfig,
    FingerprintIndex,
    IngestConfig,
    QueryEngine,
    RowMap,
    extract_chunks,
    ingest_corpus,
    migrate_index,
)
from repro.index.chunks import chunk_parts, topological_order
from repro.index.shards import unit_rows_f32
from repro.index.wlsig import load_signatures
from repro.ir import to_graphir
from repro.ir.frontends import NetlistFrontend, get_frontend
from repro.nn import batched_embed
from repro.synth.synthesize import synthesize_verilog

extract_rtl = get_frontend("rtl").extract

TINY = """
module t(input a, output y);
  assign y = ~a;
endmodule
"""

#: Big enough to chunk under a small config, far smaller than the
#: default 48-node window.
WIDE = """
module wide(input [3:0] a, input [3:0] b, input [3:0] c,
            output [3:0] x, output [3:0] y, output z);
  wire [3:0] u = a & b;
  wire [3:0] v = b | c;
  wire [3:0] w = u ^ v;
  assign x = w + a;
  assign y = w - c;
  assign z = ^(u | v);
endmodule
"""

SMALL = ChunkConfig(window=8, stride=4, min_nodes=4, max_chunks=16,
                    cone_seeds=6)


def chunk_graphs(graph, config):
    """``(subgraph, region)`` per chunk, each chunk materialized from its
    member ids and named ``<design>#<kind><index>``."""
    graphs = []
    for index, (members, region) in enumerate(extract_chunks(graph,
                                                             config)):
        sub = graph.subgraph(members.tolist())
        sub.name = f"{graph.name}#{region['kind']}{index}"
        graphs.append((sub, region))
    return graphs


def chunk_records(graph, config):
    """Fully serialized chunk set: names, regions, nodes, and edges."""
    records = []
    for sub, region in chunk_graphs(graph, config):
        nodes = [[n.node_id, n.kind, n.label, n.name] for n in sub.nodes]
        edges = [[i, list(sub.successors(i))] for i in range(len(sub))]
        records.append([sub.name, region, nodes, edges])
    return records


class TestExtraction:
    def test_single_gate_design_has_zero_chunks(self):
        graph = extract_rtl(TINY)
        assert extract_chunks(graph) == []

    def test_default_config_skips_unit_test_scale_designs(self):
        # The designs the index test-suite builds over (single-assign
        # modules) must stay single-granularity under the default config.
        graph = extract_rtl(TestV3Migration.SOURCES["adder.v"])
        assert len(graph) < ChunkConfig().min_nodes
        assert extract_chunks(graph) == []

    def test_smaller_than_window_emits_no_window_chunks(self):
        graph = extract_rtl(WIDE)
        config = ChunkConfig(window=200, stride=100, min_nodes=4,
                             max_chunks=16, cone_seeds=6)
        chunks = extract_chunks(graph, config)
        assert chunks  # cones still fire
        assert all(region["kind"] != "window" for _, region in chunks)

    def test_chunks_are_proper_subgraphs_with_region_evidence(self):
        graph = extract_rtl(WIDE)
        chunks = chunk_graphs(graph, SMALL)
        kinds = {region["kind"] for _, region in chunks}
        assert "window" in kinds and "cone" in kinds
        for sub, region in chunks:
            assert SMALL.min_nodes <= len(sub) < len(graph)
            assert sub.level == graph.level
            assert sub.name.startswith(f"{graph.name}#{region['kind']}")
            assert region["nodes"] == len(sub)
            assert 0.0 < region["frac"] < 1.0

    def test_chunks_are_sorted_member_id_sets(self):
        graph = extract_rtl(WIDE)
        for members, region in extract_chunks(graph, SMALL):
            assert members.dtype == np.int64
            assert np.all(np.diff(members) > 0)
            assert 0 <= members[0] and members[-1] < len(graph)
            assert region["nodes"] == len(members)

    def test_cap_keeps_cones_first(self):
        graph = extract_rtl(WIDE)
        config = ChunkConfig(window=8, stride=2, min_nodes=4,
                             max_chunks=3, cone_seeds=2)
        chunks = extract_chunks(graph, config)
        assert len(chunks) == 3
        assert sum(1 for _, r in chunks if r["kind"] == "cone") == 2

    def test_topological_order_is_a_permutation(self):
        graph = extract_rtl(WIDE)
        order = topological_order(graph)
        assert sorted(order) == list(range(len(graph)))

    def test_deterministic_in_process(self):
        graph = extract_rtl(WIDE)
        assert chunk_records(graph, SMALL) == chunk_records(graph, SMALL)

    def test_deterministic_across_processes(self, tmp_path):
        """A worker with a different PYTHONHASHSEED must produce the
        byte-identical chunk set (no set/dict iteration leaks)."""
        script = tmp_path / "chunker.py"
        script.write_text(
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.index import ChunkConfig\n"
            "from test_chunks import SMALL, WIDE, chunk_records, extract_rtl\n"
            "graph = extract_rtl(WIDE)\n"
            "print(json.dumps(chunk_records(graph, SMALL)))\n")
        here = Path(__file__).parent
        src = here.parent / "src"
        out = subprocess.run(
            [sys.executable, str(script), str(src)],
            env={"PYTHONHASHSEED": "271828",
                 "PYTHONPATH": f"{src}:{here}",
                 "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, check=True)
        local = chunk_records(extract_rtl(WIDE), SMALL)
        assert json.loads(out.stdout) == json.loads(json.dumps(local))

    def test_materialized_chunks_are_pinned(self):
        """Materializing chunks from their member ids reproduces the
        chunk sets that copied subgraphs out of extraction itself."""
        digests = []
        for graph, config in ((extract_rtl(WIDE), SMALL),
                              (family_graph("netlist", "crc8"),
                               ChunkConfig())):
            records = json.dumps(chunk_records(graph, config))
            digests.append(hashlib.sha256(records.encode()).hexdigest())
        assert digests == [
            "82c90c395cdab48c0f44654b39973415"
            "b96483026f14919be4fb62f05a241390",
            "fe3c9e5ec551abd3888d7034e8fe4e09"
            "8a8981f087fad96662c936a371227216",
        ]


# -- chunk parts are slices of the design's prepared arrays -------------------
LEVEL_FAMILIES = ([("rtl", name) for name in family_names()]
                  + [("netlist", name) for name in SYNTHESIZABLE_FAMILIES])


def family_graph(level, name):
    """A family's canonical design as an RTL DFG or a gate-level IR."""
    variant = canonical_variant(name)
    if level == "rtl":
        return extract_rtl(variant.verilog, top=variant.top)
    return to_graphir(synthesize_verilog(variant.verilog, top=variant.top))


class TestChunkSlices:
    @pytest.mark.parametrize("level,family", LEVEL_FAMILIES,
                             ids=[f"{lv}-{f}" for lv, f in LEVEL_FAMILIES])
    def test_slice_equals_prepared_subgraph(self, level, family):
        graph = family_graph(level, family)
        encoder = HW2VEC(seed=3, featurizer=level)
        for config in (ChunkConfig(), SMALL):
            chunks = extract_chunks(graph, config)
            parts = chunk_parts(encoder, graph, chunks)
            assert len(parts) == 1 + len(chunks)
            subs = [graph.subgraph(members.tolist())
                    for members, _ in chunks]
            for part, sub in zip(parts[1:], subs):
                sliced, copied = encoder.prepare(part), encoder.prepare(sub)
                assert sliced.num_nodes == copied.num_nodes
                for name in ("features", "rows", "cols"):
                    got, want = getattr(sliced, name), getattr(copied, name)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
            embedded = batched_embed(encoder, parts)
            expected = batched_embed(encoder, [graph] + subs)
            assert embedded.tobytes() == expected.tobytes()

    def test_slice_keeps_level_check(self):
        graph = family_graph("rtl", "adder8")
        parent = HW2VEC(featurizer="rtl").prepare(graph)
        members = extract_chunks(graph, SMALL)[0][0]
        with pytest.raises(ModelError, match="expects netlist"):
            HW2VEC(featurizer="netlist").prepare(GraphSlice(parent,
                                                            members))

    def test_empty_restriction_refused(self):
        parent = HW2VEC().prepare(extract_rtl(WIDE))
        with pytest.raises(GraphIRError, match="no nodes"):
            parent.restrict(np.empty(0, dtype=np.int64))


# -- chunk-level aggregation (synthetic engine) -------------------------------
def _entry(name, ordinal):
    return {"name": name, "path": f"{name}.v", "design": name,
            "status": "ok", "key": f"{ordinal:064d}"}


def _row_map(parents, regions):
    """Rows owned by ``parents`` (entry ordinals); a row with a region
    is a chunk, the rest are whole-design rows."""
    parent = np.array(parents, dtype=np.int64)
    chunk = np.array([region is not None for region in regions])
    design_row = np.flatnonzero(~chunk)[np.argsort(parent[~chunk])]
    return RowMap(parent, chunk, list(regions), design_row)


@pytest.fixture
def chunked_engine():
    """Two designs, three chunk rows, easily separable vectors."""
    rng = np.random.default_rng(7)
    matrix = unit_rows_f32(rng.standard_normal((5, 12)))
    entries = [_entry("alpha", 0), _entry("beta", 1)]
    row_map = _row_map(
        [0, 1, 0, 0, 1],
        [None, None, {"kind": "cone", "label": "s"},
         {"kind": "window", "label": "topo[0:8]", "span": [0, 8]},
         {"kind": "cone", "label": "q"}])
    return QueryEngine([matrix], entries, row_map=row_map), matrix


class TestChunkedAggregation:
    def test_chunk_hit_surfaces_parent_and_locality(self, chunked_engine):
        engine, matrix = chunked_engine
        hits = engine.query_many([matrix[3]], k=2, exact=True)[0]
        top = hits[0]
        assert top.design == "alpha"
        assert top.name == "alpha"          # the parent row's identity
        assert top.via == "chunk"
        assert top.region == {"kind": "window", "label": "topo[0:8]",
                              "span": [0, 8]}
        assert top.score == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= top.coverage <= 1.0
        # One hit per *parent*, never per row.
        assert len(hits) == 2
        assert {h.design for h in hits} == {"alpha", "beta"}

    def test_design_row_hit_reports_via_design(self, chunked_engine):
        engine, matrix = chunked_engine
        top = engine.query_many([matrix[1]], k=1, exact=True)[0][0]
        assert top.design == "beta"
        assert top.via == "design"
        assert top.region is None

    def test_grouped_parts_aggregate_over_the_group(self, chunked_engine):
        engine, matrix = chunked_engine
        # One suspect made of three parts: whole + two chunk probes.
        parts = np.stack([matrix[0], matrix[3], matrix[4]])
        hits = engine.query_groups(parts, [0, 3],
                                   [None, {"kind": "window"}, None],
                                   k=2, exact=True)
        assert len(hits) == 1
        best = hits[0][0]
        assert best.score == pytest.approx(1.0, abs=1e-6)
        # The best (row, part) pair also names the suspect-side region.
        assert best.query_region in (None, {"kind": "window"})

    def test_bad_offsets_rejected(self, chunked_engine):
        engine, matrix = chunked_engine
        with pytest.raises(IndexStoreError, match="partition"):
            engine.query_groups(matrix[:3], [0, 2], None, k=1)

    def test_chunkless_engine_takes_generic_group_path(self):
        rng = np.random.default_rng(1)
        matrix = unit_rows_f32(rng.standard_normal((4, 6)))
        entries = [{"name": f"d{i}", "path": f"d{i}.v", "design": f"d{i}",
                    "status": "ok", "key": f"{i:064d}"}
                   for i in range(4)]
        engine = QueryEngine([matrix], entries)
        assert not engine.chunked
        hits = engine.query_groups(matrix[:2], [0, 2], None, k=1,
                                   exact=True)
        assert len(hits) == 1
        assert hits[0][0].score == pytest.approx(1.0, abs=1e-6)


# -- the v4 store over a real netlist corpus ----------------------------------
@pytest.fixture(scope="module")
def netlist_index(tmp_path_factory):
    from repro.designs import materialize_netlist_corpus

    root = tmp_path_factory.mktemp("chunkidx")
    paths = materialize_netlist_corpus(root / "corpus",
                                       families=["adder8", "cmp8"],
                                       instances_per_design=1, seed=0)
    model = GNN4IP(seed=0, featurizer="netlist")
    index, report = ingest_corpus(root / "idx", paths, model,
                                  IngestConfig(level="netlist", jobs=1),
                                  fresh=True)
    return index, report, model


class TestV4Store:
    def test_build_stores_chunk_rows(self, netlist_index):
        index, report, _ = netlist_index
        assert index.has_chunks
        assert report["chunk_rows"] == index.chunk_row_count > 0
        stats = index.stats()
        assert stats["design_rows"] == len(index) == 2
        assert stats["chunk_rows"] == index.chunk_row_count
        assert index.meta["chunks"] == ChunkConfig().as_dict()

    def test_rows_table_matches_shards(self, netlist_index):
        index, _, _ = netlist_index
        assert len(index.rows) == len(index) + index.chunk_row_count
        assert index.shards.rows == len(index.rows)
        # Reload from disk: the row table round-trips.
        reloaded = FingerprintIndex.load(index.root)
        assert reloaded.rows == index.rows

    def test_entry_for_key_with_interleaved_rows(self, netlist_index):
        """Ingest stores each design's chunk rows right after its design
        row, so a design's row number is not its entry ordinal."""
        index, _, _ = netlist_index
        for entry in index.entries:
            assert index.entry_for_key(entry["key"]) is entry
            row = index.rows.index({"kind": "design",
                                    "name": entry["name"]})
            np.testing.assert_array_equal(index.lookup_key(entry["key"]),
                                          index.matrix[row])

    def test_query_graphs_finds_chunk_locality(self, netlist_index):
        index, _, model = netlist_index
        frontend = NetlistFrontend()
        ok = [e for e in index.entries if e["status"] == "ok"]
        graph = frontend.extract_file(ok[0]["path"])
        (hits,) = Session(detector=Detector.from_model(model),
                          corpus=Corpus(index)).query([graph], k=2)
        assert hits[0].design == ok[0]["design"]
        assert hits[0].coverage is not None

    def test_stats_cli_reports_chunk_and_design_rows(self, netlist_index,
                                                     capsys):
        index, _, _ = netlist_index
        assert main(["index", "stats", str(index.root)]) == 0
        out = capsys.readouterr().out
        assert "design_rows" in out and "chunk_rows" in out

    def test_build_without_chunks(self, tmp_path, netlist_index):
        index, _, model = netlist_index
        ok = [e for e in index.entries if e["status"] == "ok"]
        plain, report = ingest_corpus(
            tmp_path / "plain", [e["path"] for e in ok], model,
            IngestConfig(level="netlist", jobs=1, chunks=False), fresh=True)
        assert not plain.has_chunks
        assert report["chunk_rows"] == 0
        assert plain.meta["chunks"] is None
        assert plain.chunk_config() is None


class TestEmbeddingReuse:
    """Reuse copies a stored design's rows, chunk regions, and WL colors
    by content key; the copies must equal what embedding produces."""

    NETLIST = IngestConfig(level="netlist", jobs=1)

    @staticmethod
    def _rows_of(index, name):
        ids = [row for row, spec in enumerate(index.rows)
               if name in (spec.get("name"), spec.get("parent"))]
        return (np.asarray(index.matrix)[ids],
                [index.rows[row].get("region") for row in ids])

    def test_warm_rebuild_reuses_every_design(self, tmp_path,
                                              netlist_index):
        index, _, model = netlist_index
        paths = [e["path"] for e in index.entries if e["status"] == "ok"]
        root = tmp_path / "idx"
        ingest_corpus(root, paths, model, self.NETLIST, fresh=True)
        warm, report = ingest_corpus(root, paths, model, self.NETLIST,
                                     fresh=True)
        assert report["embeddings_reused"] == len(paths)
        assert report["embedded_fresh"] == 0
        assert warm.has_chunks
        reused = np.array(warm.matrix)
        rows = warm.rows
        signatures = load_signatures(root)

        # Another model's or another chunk config's rows are never
        # reused.
        _, report = ingest_corpus(root, paths,
                                  GNN4IP(seed=1, featurizer="netlist"),
                                  self.NETLIST, fresh=True)
        assert report["embeddings_reused"] == 0
        _, report = ingest_corpus(
            root, paths, GNN4IP(seed=1, featurizer="netlist"),
            IngestConfig(level="netlist", jobs=1,
                         chunk_config=ChunkConfig(max_chunks=4)),
            fresh=True)
        assert report["embeddings_reused"] == 0

        rebuilt, report = ingest_corpus(
            root, paths, model,
            IngestConfig(level="netlist", jobs=1, use_cache=False),
            fresh=True)
        assert report["embeddings_reused"] == 0
        np.testing.assert_array_equal(reused, rebuilt.matrix)
        assert rebuilt.rows == rows
        assert load_signatures(root) == signatures

    def test_appended_duplicate_copies_rows(self, tmp_path, netlist_index):
        index, _, model = netlist_index
        ok = [e for e in index.entries if e["status"] == "ok"]
        root = tmp_path / "idx"
        ingest_corpus(root, [e["path"] for e in ok], model, self.NETLIST,
                      fresh=True)
        copy = tmp_path / "copy.v"
        copy.write_text(Path(ok[0]["path"]).read_text())
        grown, report = ingest_corpus(root, [copy],
                                      config=IngestConfig(jobs=1),
                                      resume=False)
        assert report["embeddings_reused"] == 1
        rows, regions = self._rows_of(grown, ok[0]["name"])
        copy_rows, copy_regions = self._rows_of(grown, "copy")
        assert len(rows) > 1  # the design's chunk rows came along
        assert copy_rows.tobytes() == rows.tobytes()
        assert copy_regions == regions
        colors, _ = load_signatures(root)
        assert colors["copy"] == colors[ok[0]["name"]]


class TestV3Migration:
    SOURCES = {"adder.v": """
module adder(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule
""", "sub.v": """
module sub(input [3:0] a, input [3:0] b, output [4:0] d);
  assign d = a - b;
endmodule
"""}

    @pytest.fixture
    def built(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        for name, text in self.SOURCES.items():
            (root / name).write_text(text)
        model = GNN4IP(seed=0)
        index, _ = ingest_corpus(tmp_path / "idx", sorted(root.glob("*.v")),
                                 model, IngestConfig(jobs=1), fresh=True)
        return index, model

    @staticmethod
    def _downgrade_to_v3(index):
        """Rewrite the meta as a faithful v3 layout: same shards, no row
        table, no chunk record.  (Tiny RTL designs chunk to nothing, so
        the shard bytes already match a v3 build.)"""
        assert not index.has_chunks
        meta = json.loads((index.root / "meta.json").read_text())
        meta["version"] = 3
        meta.pop("rows", None)
        meta.pop("chunks", None)
        (index.root / "meta.json").write_text(json.dumps(meta))

    def test_v3_load_refused_with_migrate_message(self, built):
        index, _ = built
        self._downgrade_to_v3(index)
        with pytest.raises(IndexStoreError, match="index migrate"):
            FingerprintIndex.load(index.root)

    def test_migrate_v3_roundtrip_preserves_scores(self, built):
        index, model = built
        suspect = extract_rtl(self.SOURCES["adder.v"])
        detector = Detector.from_model(model)
        (before,) = Session(detector=detector,
                            corpus=Corpus(index)).query([suspect], k=2)
        self._downgrade_to_v3(index)
        migrated = migrate_index(index.root)
        assert migrated.meta["version"] == 4
        assert len(migrated.rows) == len(migrated)
        assert all(r["kind"] == "design" for r in migrated.rows)
        assert migrated.meta["chunks"] is None
        (after,) = Session(detector=detector,
                           corpus=Corpus(migrated)).query([suspect], k=2)
        assert [(h.name, h.score) for h in after] == \
            [(h.name, h.score) for h in before]
        # And the migrated index reloads cleanly.
        FingerprintIndex.load(index.root)

    def test_migrate_cli_mentions_v4(self, built, capsys):
        index, _ = built
        self._downgrade_to_v3(index)
        assert main(["index", "migrate", str(index.root)]) == 0
        out = capsys.readouterr().out
        assert "format v4" in out
        assert main(["index", "migrate", str(index.root)]) == 0
        assert "nothing to do" in capsys.readouterr().out
