"""Structural WL signatures and rank fusion (``repro.index.wlsig``).

The structural channel exists because chunk-granularity cosines
saturate: these tests pin the properties the partial-theft floor
depends on — fanin-only colors must be theft-invariant (new fanout in a
host must not change a stolen cone's colors), hashing must be stable
across processes, reverse containment must rank a design's own graph
first, and the engine's rank fusion must let either channel promote a
parent the other ranks poorly while reporting the delta-comparable
whole-vs-whole cosine as the score.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Corpus, Detector, Session
from repro.core import GNN4IP
from repro.errors import IndexStoreError
from repro.index import (
    FingerprintIndex,
    IngestConfig,
    QueryEngine,
    RowMap,
    SignatureScorer,
    ingest_corpus,
    wl_colors,
)
from repro.index.shards import unit_rows_f32
from repro.index.wlsig import (
    SIG_NAME,
    load_signatures,
    write_signatures,
)
from repro.ir.frontends import get_frontend
from repro.ir.graphir import GraphIR

extract_rtl = get_frontend("rtl").extract

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


def chain_graph(labels, extra_fanout=0):
    """A linear chain of op nodes; ``extra_fanout`` appends consumers
    fed by the chain's last node (downstream-only growth)."""
    graph = GraphIR(name="chain", level="rtl")
    previous = None
    for label in labels:
        node = graph.add_node(kind="op", label=label)
        if previous is not None:
            graph.add_edge(previous, node)
        previous = node
    for index in range(extra_fanout):
        sink = graph.add_node(kind="op", label=f"sink{index}")
        graph.add_edge(previous, sink)
    return graph


class TestColors:
    def test_fanin_only_colors_survive_new_fanout(self):
        """Stolen logic keeps its predecessors but grows successors
        inside the host — its colors must not change."""
        stolen = chain_graph(["and", "or", "xor"])
        grafted = chain_graph(["and", "or", "xor"], extra_fanout=3)
        stolen_colors = wl_colors(stolen)
        for color, count in stolen_colors.items():
            assert wl_colors(grafted)[color] >= count

    def test_radius_widens_the_context(self):
        graph = extract_rtl(WIDE)
        assert len(wl_colors(graph, radius=2)) >= len(wl_colors(graph,
                                                               radius=1))

    def test_label_changes_change_colors(self):
        assert wl_colors(chain_graph(["and", "or"])) != \
            wl_colors(chain_graph(["and", "xor"]))

    def test_deterministic_across_processes(self, tmp_path):
        """blake2b-based colors must not depend on PYTHONHASHSEED."""
        script = tmp_path / "colorer.py"
        script.write_text(
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.index import wl_colors\n"
            "from test_wlsig import WIDE, extract_rtl\n"
            "colors = wl_colors(extract_rtl(WIDE))\n"
            "print(json.dumps(sorted(map(list, colors.items()))))\n")
        here = Path(__file__).parent
        src = here.parent / "src"
        out = subprocess.run(
            [sys.executable, str(script), str(src)],
            env={"PYTHONHASHSEED": "314159",
                 "PYTHONPATH": f"{src}:{here}",
                 "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, check=True)
        local = sorted(map(list, wl_colors(extract_rtl(WIDE)).items()))
        assert json.loads(out.stdout) == json.loads(json.dumps(local))


class TestSignatureStore:
    def test_round_trip(self, tmp_path):
        colors = {"a": wl_colors(chain_graph(["and", "or"])),
                  "b": wl_colors(chain_graph(["xor", "not"]))}
        write_signatures(tmp_path, colors)
        loaded, radius = load_signatures(tmp_path)
        assert loaded == colors
        assert radius == 1

    def test_absent_and_foreign_versions_return_none(self, tmp_path):
        assert load_signatures(tmp_path) is None
        (tmp_path / SIG_NAME).write_text(json.dumps(
            {"version": 999, "radius": 1, "colors": {}}))
        assert load_signatures(tmp_path) is None

    def test_corrupt_file_is_an_error(self, tmp_path):
        (tmp_path / SIG_NAME).write_text("{nope")
        with pytest.raises(IndexStoreError, match="corrupt"):
            load_signatures(tmp_path)


class TestScorer:
    @pytest.fixture
    def scorer(self):
        graphs = {
            "alpha.0": chain_graph(["and", "or", "xor", "add"]),
            "alpha.1": chain_graph(["and", "or", "xor", "sub"]),
            "beta.0": chain_graph(["mux", "not", "shl", "shr"]),
        }
        names = sorted(graphs)
        return SignatureScorer(
            names, [name.split(".")[0] for name in names],
            {name: wl_colors(graph) for name, graph in graphs.items()}
        ), graphs

    def test_own_graph_scores_highest(self, scorer):
        scorer, graphs = scorer
        scores = scorer.scores(wl_colors(graphs["beta.0"]))
        assert int(np.argmax(scores)) == 2

    def test_partial_containment_beats_unrelated(self, scorer):
        scorer, graphs = scorer
        # A "host" carrying half of beta's chain, nothing of alpha's.
        suspect = chain_graph(["mux", "not"], extra_fanout=2)
        scores = scorer.scores(wl_colors(suspect))
        assert scores[2] > scores[0] and scores[2] > scores[1]

    def test_background_calibration_is_deterministic(self, scorer):
        scorer, graphs = scorer
        again = SignatureScorer(
            scorer._names, scorer._designs,
            dict(zip(scorer._names, scorer._entry_colors)))
        query = wl_colors(graphs["alpha.0"])
        np.testing.assert_array_equal(scorer.scores(query),
                                      again.scores(query))


# -- engine rank fusion over synthetic vectors --------------------------------
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
def fusion_engine():
    """Three designs, one chunk row each, separable vectors."""
    rng = np.random.default_rng(3)
    matrix = unit_rows_f32(rng.standard_normal((6, 16)))
    entries = [_entry("alpha", 0), _entry("beta", 1), _entry("gamma", 2)]
    row_map = _row_map(
        [0, 1, 2, 0, 1, 2],
        [None, None, None, {"kind": "cone", "label": "a"},
         {"kind": "cone", "label": "b"}, {"kind": "cone", "label": "g"}])
    return QueryEngine([matrix], entries, row_map=row_map), matrix


class TestRankFusion:
    def test_struct_channel_promotes_embedding_loser(self, fusion_engine):
        engine, matrix = fusion_engine
        # The suspect's vectors are beta-ish, but structure says gamma.
        parts = np.stack([matrix[1], matrix[4]])
        struct = np.array([-0.5, -0.2, 0.9])
        hits = engine.query_groups(parts, [0, 2],
                                   [None, {"kind": "cone"}], k=3,
                                   struct=[struct])[0]
        assert hits[0].design in ("beta", "gamma")
        assert {h.design for h in hits[:2]} == {"beta", "gamma"}
        # Reported score is the whole-vs-design-row cosine, never a
        # chunk cosine.
        for hit in hits:
            row = ["alpha", "beta", "gamma"].index(hit.design)
            expected = float(np.dot(matrix[row], parts[0]))
            assert hit.score == pytest.approx(expected, abs=1e-6)

    def test_embedding_channel_still_carries_its_winners(self,
                                                         fusion_engine):
        engine, matrix = fusion_engine
        # Structure is uninformative (all equal): embedding rank wins.
        parts = np.stack([matrix[0], matrix[3]])
        hits = engine.query_groups(parts, [0, 2],
                                   [None, {"kind": "cone"}], k=1,
                                   struct=[np.zeros(3)])[0]
        assert hits[0].design == "alpha"
        assert hits[0].coverage == pytest.approx(1.0)

    def test_none_struct_keeps_legacy_ranking(self, fusion_engine):
        engine, matrix = fusion_engine
        parts = np.stack([matrix[1], matrix[4]])
        fused = engine.query_groups(parts, [0, 2], None, k=3,
                                    struct=[None])
        legacy = engine.query_groups(parts, [0, 2], None, k=3)
        assert [(h.design, h.score) for h in fused[0]] == \
            [(h.design, h.score) for h in legacy[0]]

    def test_wrong_struct_shape_rejected(self, fusion_engine):
        engine, matrix = fusion_engine
        with pytest.raises(IndexStoreError, match="structural scores"):
            engine.query_groups(matrix[:1], [0, 1], None, k=1,
                                struct=[np.zeros(7)])

    def test_wrong_struct_length_rejected(self, fusion_engine):
        engine, matrix = fusion_engine
        with pytest.raises(IndexStoreError, match="score vectors"):
            engine.query_groups(matrix[:2], [0, 1, 2], None, k=1,
                                struct=[np.zeros(3)])


# -- signatures through the on-disk index -------------------------------------
class TestIndexedSignatures:
    @pytest.fixture(scope="class")
    def netlist_index(self, tmp_path_factory):
        from repro.designs import materialize_netlist_corpus

        root = tmp_path_factory.mktemp("sigidx")
        paths = materialize_netlist_corpus(root / "corpus",
                                           families=["adder8", "cmp8"],
                                           instances_per_design=1, seed=0)
        model = GNN4IP(seed=0, featurizer="netlist")
        index, report = ingest_corpus(root / "idx", paths, model,
                                      IngestConfig(level="netlist", jobs=1),
                                      fresh=True)
        return index, model

    def test_build_writes_signatures_for_every_entry(self, netlist_index):
        index, _ = netlist_index
        assert index.has_chunks
        colors, _ = load_signatures(index.root)
        assert sorted(colors) == sorted(
            e["name"] for e in index.entries if e["status"] == "ok")
        assert index.signature_scorer() is not None
        assert index.stats()["signed_entries"] == len(index)

    def test_partial_suspect_ranks_its_victim_first(self, netlist_index):
        index, model = netlist_index
        frontend = index.frontend()
        ok = [e for e in index.entries if e["status"] == "ok"]
        victim = frontend.extract_file(ok[0]["path"])
        # Steal roughly half the victim: a fanin-closed node subset.
        members = victim.reachable_from([len(victim) - 1])
        if len(members) < 10:
            members = set(range(len(victim) // 2))
        suspect = victim.subgraph(members)
        (hits,) = Session(detector=Detector.from_model(model),
                          corpus=Corpus(index)).query([suspect], k=2)
        assert hits[0].design == ok[0]["design"]

    def test_chunkless_build_writes_no_signatures(self, tmp_path):
        sources = tmp_path / "src"
        sources.mkdir()
        (sources / "tiny.v").write_text(
            "module tiny(input a, input b, output y);\n"
            "  assign y = a & b;\nendmodule\n")
        model = GNN4IP(seed=0)
        index, _ = ingest_corpus(tmp_path / "idx", [sources / "tiny.v"],
                                 model, IngestConfig(jobs=1), fresh=True)
        assert not index.has_chunks
        assert not (index.root / SIG_NAME).is_file()
        assert index.signature_scorer() is None
        assert index.stats()["signed_entries"] == 0

    def test_scorer_disabled_when_entries_unsigned(self, netlist_index):
        index, _ = netlist_index
        colors, radius = load_signatures(index.root)
        victim = sorted(colors)[0]
        trimmed = {name: counts for name, counts in colors.items()
                   if name != victim}
        write_signatures(index.root, trimmed, radius=radius)
        try:
            reloaded = FingerprintIndex.load(index.root)
            assert reloaded.signature_scorer() is None
            assert reloaded.stats()["signed_entries"] == 0
        finally:
            write_signatures(index.root, colors, radius=radius)
