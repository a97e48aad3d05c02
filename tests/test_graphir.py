"""GraphIR, frontend adapters, featurizers, and schema-aware caching."""

import numpy as np
import pytest

from repro.core import (
    FEATURE_DIM,
    GNN4IP,
    NETLIST_FEATURIZER,
    RTL_FEATURIZER,
    get_featurizer,
    load_model,
    one_hot_features,
    save_model,
)
from repro.dataflow import analyze, elaborate, trim
from repro.errors import GraphIRError, ModelError, NetlistError
from repro.index.cache import DFGCache, content_key
from repro.ir import (
    KIND_CELL,
    KIND_SIGNAL,
    LEVEL_NETLIST,
    LEVEL_RTL,
    GraphIR,
    to_graphir,
)
from repro.ir import serialize as ir_serialize
from repro.ir.frontends import NetlistFrontend, RTLFrontend, get_frontend
from repro.netlist.netlist import NetlistBuilder
from repro.netlist.to_ir import netlist_to_ir
from repro.synth.synthesize import synthesize_verilog
from repro.verilog import parse_source

extract_rtl = get_frontend("rtl").extract

ADDER = """
module adder(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule
"""

COUNTER = """
module counter(input clk, output reg [3:0] q);
  always @(posedge clk) q <= q + 4'd1;
endmodule
"""


def small_netlist():
    builder = NetlistBuilder("toy")
    a, b = builder.inputs("a", "b")
    builder.outputs("y")
    builder.xor_(a, builder.and_(a, b), out="y")
    return builder.build()


class TestGraphIR:
    def test_levels_and_stats(self):
        ir = GraphIR("g", level=LEVEL_NETLIST)
        n0 = ir.add_node(KIND_SIGNAL, "input", "a")
        n1 = ir.add_node(KIND_CELL, "and", "g0")
        ir.add_edge(n1, n0)
        assert len(ir) == 2 and ir.num_edges == 1
        assert ir.stats()["level"] == LEVEL_NETLIST
        assert ir.successors(n1) == [n0]
        assert ir.predecessors(n0) == [n1]

    def test_dfg_is_graphir(self):
        graph = extract_rtl(ADDER)
        assert type(graph) is GraphIR
        assert graph.level == LEVEL_RTL
        assert to_graphir(graph) is graph

    def test_subgraph_preserves_type_and_level(self):
        dfg = extract_rtl(ADDER)
        sub = dfg.subgraph(range(len(dfg)))
        assert type(sub) is GraphIR and sub.level == LEVEL_RTL
        ir = netlist_to_ir(small_netlist())
        assert ir.subgraph(range(len(ir))).level == LEVEL_NETLIST

    def test_serialize_round_trip(self):
        ir = netlist_to_ir(small_netlist())
        back = ir_serialize.loads(ir_serialize.dumps(ir))
        assert back.level == ir.level
        assert back.labels() == ir.labels()
        assert back.num_edges == ir.num_edges

    def test_serialize_round_trips_dfg_as_rtl_ir(self):
        dfg = extract_rtl(ADDER)
        back = ir_serialize.loads(ir_serialize.dumps(dfg))
        assert back.level == LEVEL_RTL
        assert back.labels() == dfg.labels()

    def test_serialize_rejects_garbage(self):
        with pytest.raises(GraphIRError):
            ir_serialize.loads(b"junk")
        with pytest.raises(GraphIRError):
            ir_serialize.from_dict({"version": 99})


class TestNetlistToIR:
    def test_cell_nodes_and_ports(self):
        ir = netlist_to_ir(small_netlist())
        counts = ir.label_counts()
        assert counts["input"] == 2
        assert counts["output"] == 1
        assert counts["and"] == 1 and counts["xor"] == 1
        assert ir.level == LEVEL_NETLIST

    def test_dff_nodes_and_clock_input(self):
        net = synthesize_verilog(COUNTER)
        ir = netlist_to_ir(net)
        assert ir.label_counts()["dff"] == 4
        # clk arrives as an input signal node.
        names = {n.name for n in ir.nodes if n.label == "input"}
        assert "clk" in names

    def test_const_nets_become_const_nodes(self):
        from repro.netlist.netlist import CONST1

        builder = NetlistBuilder("k")
        builder.inputs("a")
        builder.outputs("y")
        builder.netlist.add_gate("and", "y", ["a", CONST1])
        ir = netlist_to_ir(builder.build())
        assert ir.label_counts()["const"] == 1

    def test_undriven_net_raises(self):
        builder = NetlistBuilder("bad")
        builder.inputs("a")
        builder.outputs("y")
        builder.netlist.add_gate("and", "y", ["a", "ghost"])
        with pytest.raises(NetlistError):
            netlist_to_ir(builder.netlist)

    def test_to_graphir_adapts_netlist(self):
        ir = to_graphir(small_netlist())
        assert ir.level == LEVEL_NETLIST
        with pytest.raises(TypeError):
            to_graphir(42)


class TestFeaturizers:
    def test_rtl_featurizer_matches_legacy(self):
        graph = extract_rtl(ADDER)
        np.testing.assert_array_equal(one_hot_features(graph),
                                      RTL_FEATURIZER.features(graph))
        assert RTL_FEATURIZER.dim == FEATURE_DIM

    def test_netlist_features_one_hot(self):
        ir = netlist_to_ir(small_netlist())
        features = NETLIST_FEATURIZER.features(ir)
        assert features.shape == (len(ir), NETLIST_FEATURIZER.dim)
        assert np.all(features.sum(axis=1) == 1.0)

    def test_level_mismatch_raises(self):
        with pytest.raises(ModelError):
            RTL_FEATURIZER.features(netlist_to_ir(small_netlist()))
        with pytest.raises(ModelError):
            NETLIST_FEATURIZER.features(extract_rtl(ADDER))

    def test_fingerprints_are_stable_and_distinct(self):
        assert RTL_FEATURIZER.fingerprint() == RTL_FEATURIZER.fingerprint()
        assert RTL_FEATURIZER.fingerprint() != NETLIST_FEATURIZER.fingerprint()

    def test_registry(self):
        assert get_featurizer("rtl") is RTL_FEATURIZER
        assert get_featurizer(NETLIST_FEATURIZER) is NETLIST_FEATURIZER
        with pytest.raises(ModelError):
            get_featurizer("layout")


class TestFrontends:
    def test_levels(self):
        assert get_frontend(None).level == "rtl"
        assert isinstance(get_frontend("rtl"), RTLFrontend)
        assert isinstance(get_frontend("netlist"), NetlistFrontend)
        with pytest.raises(ValueError):
            get_frontend("layout")

    def test_rtl_extract_matches_pipeline(self):
        frontend = get_frontend("rtl")
        ir = frontend.extract(ADDER)
        phases = trim(analyze(elaborate(parse_source(ADDER))))
        assert ir.labels() == phases.labels()
        np.testing.assert_array_equal(np.stack(ir.edge_arrays()),
                                      np.stack(phases.edge_arrays()))
        assert ir.level == LEVEL_RTL

    def test_netlist_extract_synthesizes(self):
        ir = get_frontend("netlist").extract(ADDER)
        assert ir.level == LEVEL_NETLIST
        assert "xor" in ir.label_counts()

    def test_schema_fingerprints_differ_by_level(self):
        rtl, net = get_frontend("rtl"), get_frontend("netlist")
        assert rtl.schema_fingerprint() != net.schema_fingerprint()
        assert rtl.content_key(ADDER) != net.content_key(ADDER)

    def test_content_keys_are_pinned(self):
        # Every cached graph and stored embedding is addressed by these
        # keys; a drift makes existing indexes miss and re-embed.
        expected = {
            "rtl": "6ff50e1f71f8b9537787144ce6a4e9c9"
                   "b29d4c3c19d17d776d2499a6a9584bbf",
            "netlist": "e780b7417a8a0b442e186730cfe23104"
                       "0b4d4e752fde1d2ffca34fb77f6518ed",
        }
        for level, key in expected.items():
            frontend = get_frontend(level)
            assert frontend.content_key(frontend.preprocess_text(ADDER)) == key


class TestSchemaAwareCache:
    def test_schema_changes_key(self):
        base = content_key("module m; endmodule", "trim=1")
        assert content_key("module m; endmodule", "trim=1",
                           schema="feat-a") != base
        assert content_key("module m; endmodule", "trim=1", schema="feat-a") \
            != content_key("module m; endmodule", "trim=1", schema="feat-b")

    def test_vocabulary_change_invalidates_cached_entry(self, tmp_path):
        """A feature-schema change must miss (not resurrect) old entries."""
        frontend = get_frontend("rtl")
        cache = DFGCache(tmp_path / "cache")
        cleaned = frontend.preprocess_text(ADDER)
        key = frontend.content_key(cleaned)
        cache.store(key, frontend.extract_preprocessed(cleaned))
        assert cache.load(key) is not None

        from repro.core.features import OneHotFeaturizer, VOCABULARY

        reordered = OneHotFeaturizer("rtl", LEVEL_RTL,
                                     tuple(reversed(VOCABULARY)))
        changed = RTLFrontend(featurizer=reordered)
        new_key = changed.content_key(cleaned)
        assert new_key != key
        assert cache.load(new_key) is None  # stale entry cannot be reused

    def test_corrupt_blob_heals(self, tmp_path):
        frontend = get_frontend("netlist")
        cache = DFGCache(tmp_path / "cache")
        cleaned = frontend.preprocess_text(ADDER)
        key = frontend.content_key(cleaned)
        cache.store(key, frontend.extract_preprocessed(cleaned))
        cache.blob_path(key).write_bytes(b"corrupt")
        assert cache.load(key) is None
        assert cache.stats.corrupt == 1
        assert not cache.blob_path(key).exists()


class TestModelModality:
    def test_persist_round_trips_featurizer(self, tmp_path):
        model = GNN4IP(seed=0, featurizer="netlist")
        path = tmp_path / "net.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.encoder.featurizer.level == LEVEL_NETLIST
        assert loaded.encoder.config["featurizer"] == "netlist"

    def test_loaded_model_rejects_wrong_modality(self, tmp_path):
        model = GNN4IP(seed=0, featurizer="netlist")
        path = tmp_path / "net.npz"
        save_model(model, path)
        loaded = load_model(path)
        with pytest.raises(ModelError):
            loaded.similarity(extract_rtl(ADDER),
                              extract_rtl(ADDER))

    def test_legacy_archive_defaults_to_rtl(self, tmp_path):
        """Archives saved before the featurizer field load as RTL models."""
        import json

        model = GNN4IP(seed=0)
        path = tmp_path / "old.npz"
        state = model.encoder.state_dict()
        state["__delta__"] = np.array(model.delta)
        config = {k: v for k, v in model.encoder.config.items()
                  if k != "featurizer"}
        state["__config__"] = np.array(json.dumps(config, sort_keys=True))
        np.savez(path, **state)
        loaded = load_model(path)
        assert loaded.encoder.featurizer.level == LEVEL_RTL

    def test_load_rejects_drifted_feature_schema(self, tmp_path):
        """Weights saved under another vocabulary order must not load."""
        model = GNN4IP(seed=0)
        path = tmp_path / "drifted.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as data:
            state = {key: data[key] for key in data.files}
        state["__featurizer_schema__"] = np.array("feat-v0:other")
        np.savez(path, **state)
        with pytest.raises(ModelError, match="schema"):
            load_model(path)

    def test_index_frontend_rejects_drifted_schema(self, tmp_path):
        """An index built under another feature schema must fail loudly."""
        import json

        from repro.errors import IndexStoreError
        from repro.index import FingerprintIndex, IngestConfig, ingest_corpus

        corpus = tmp_path / "a.v"
        corpus.write_text(ADDER)
        index, _ = ingest_corpus(tmp_path / "idx", [corpus], GNN4IP(seed=0),
                                 IngestConfig(jobs=1), fresh=True)
        meta_path = index.root / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["options"]["schema"] = "rtl:ir-v0:feat=stale"
        meta_path.write_text(json.dumps(meta))
        stale = FingerprintIndex.load(index.root)
        with pytest.raises(IndexStoreError, match="schema has changed"):
            stale.frontend()

    def test_encoder_dims_follow_featurizer(self):
        net = GNN4IP(seed=0, featurizer="netlist")
        assert net.encoder.config["in_features"] == NETLIST_FEATURIZER.dim
        rtl = GNN4IP(seed=0)
        assert rtl.encoder.config["in_features"] == FEATURE_DIM
