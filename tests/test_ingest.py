"""Streaming ingest: equivalence, resume, error isolation, recovery.

The contract under test (see ``repro.index.ingest``):

- a streaming ingest produces an index whose rows and query results do
  not depend on how often it flushes;
- a run killed (here: paused) mid-stream resumes from its checkpoint
  and finishes with results identical to an uninterrupted run;
- one broken design is recorded and skipped, never fatal;
- a checkpoint whose inputs, model, or shard bytes no longer match is
  refused with a loud, actionable error — never silently misread.
"""

import json

import numpy as np
import pytest

from repro.api import Corpus, Session
from repro.cli import main
from repro.core import GNN4IP, save_model
from repro.errors import IndexStoreError, ModelError
from repro.index import (
    FingerprintIndex,
    IngestConfig,
    ingest_corpus,
    walk_sources,
)
from repro.index.ingest import (
    CHECKPOINT_NAME,
    COMPACT_MIN_SHARDS,
    SIG_SIDECAR_NAME,
)
from repro.ir.frontends import get_frontend

extract_rtl = get_frontend("rtl").extract

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

COUNTER = """
module counter(input clk, input rst, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 1;
  end
endmodule
"""

PARITY = """
module parity(input [7:0] d, output p);
  assign p = ^d;
endmodule
"""

SOURCES = {"adder.v": ADDER, "sub.v": SUB, "mux.v": MUX,
           "xchain.v": XOR_CHAIN, "counter.v": COUNTER,
           "parity.v": PARITY}

BROKEN = "module oops(input a\n"  # unparseable on purpose


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for name, text in SOURCES.items():
        (root / name).write_text(text)
    return root


@pytest.fixture
def corpus(corpus_dir):
    return sorted(corpus_dir.glob("*.v"))


def top_hits(index, source, k=4):
    (hits,) = Session(corpus=Corpus(index)).query([extract_rtl(source)],
                                                  k=k)
    return [(h.name, h.score) for h in hits]


def assert_same_hits(a, b):
    assert [name for name, _ in a] == [name for name, _ in b]
    np.testing.assert_allclose([s for _, s in a], [s for _, s in b],
                               atol=2e-6)


class TestWalkSources:
    def test_expands_directories_recursively(self, tmp_path):
        (tmp_path / "lib" / "sub").mkdir(parents=True)
        (tmp_path / "lib" / "b.v").write_text(ADDER)
        (tmp_path / "lib" / "sub" / "a.v").write_text(MUX)
        (tmp_path / "one.v").write_text(SUB)
        (tmp_path / "lib" / "notes.txt").write_text("not verilog")
        found = walk_sources([tmp_path / "one.v", tmp_path / "lib"])
        assert [p.name for p in found] == ["one.v", "b.v", "a.v"]

    def test_deduplicates_and_keeps_order_stable(self, tmp_path):
        (tmp_path / "a.v").write_text(ADDER)
        twice = walk_sources([tmp_path / "a.v", tmp_path, tmp_path])
        assert [p.name for p in twice] == ["a.v"]


class TestFreshIngest:
    def test_matches_one_shot_build(self, tmp_path, corpus):
        """Flush boundaries are invisible: a many-flush ingest equals a
        one-flush build, same entries, same rows, same top-k names and
        scores."""
        model = GNN4IP(seed=0)
        built, _ = ingest_corpus(tmp_path / "built", corpus, GNN4IP(seed=0),
                                 IngestConfig(jobs=1), fresh=True)
        ingested, report = ingest_corpus(
            tmp_path / "ingested", corpus, model,
            IngestConfig(jobs=1, flush_rows=4))
        assert report["ingest"]["state"] == "complete"
        assert report["embedded"] == len(corpus)
        assert [e["name"] for e in ingested.entries] == \
            [e["name"] for e in built.entries]
        assert len(ingested.meta["rows"]) == len(built.meta["rows"])
        np.testing.assert_array_equal(np.asarray(ingested.matrix),
                                      np.asarray(built.matrix))
        for source in (ADDER, MUX, XOR_CHAIN):
            assert_same_hits(top_hits(ingested, source),
                             top_hits(built, source))

    def test_multiprocess_matches_serial(self, tmp_path, corpus):
        serial, _ = ingest_corpus(tmp_path / "serial", corpus,
                                  GNN4IP(seed=0), IngestConfig(jobs=1))
        parallel, report = ingest_corpus(tmp_path / "parallel", corpus,
                                         GNN4IP(seed=0),
                                         IngestConfig(jobs=2))
        assert report["jobs"] == 2
        np.testing.assert_array_equal(np.asarray(parallel.matrix),
                                      np.asarray(serial.matrix))
        assert [e["name"] for e in parallel.entries] == \
            [e["name"] for e in serial.entries]

    def test_checkpoint_and_sidecar_removed_on_completion(self, tmp_path,
                                                          corpus):
        index, _ = ingest_corpus(tmp_path / "idx", corpus, GNN4IP(seed=0),
                                 IngestConfig(jobs=1, flush_rows=4))
        assert not (index.root / CHECKPOINT_NAME).exists()
        assert not (index.root / SIG_SIDECAR_NAME).exists()

    def test_needs_model(self, tmp_path, corpus):
        with pytest.raises(ModelError, match="needs a model"):
            ingest_corpus(tmp_path / "idx", corpus)

    def test_empty_input_refused(self, tmp_path):
        with pytest.raises(IndexStoreError, match="no input files"):
            ingest_corpus(tmp_path / "idx", [], GNN4IP(seed=0))

    def test_progress_callback_sees_totals(self, tmp_path, corpus):
        seen = []
        ingest_corpus(tmp_path / "idx", corpus, GNN4IP(seed=0),
                      IngestConfig(jobs=1, progress=seen.append,
                                   progress_every=0.0))
        assert seen, "progress callback never fired"
        last = seen[-1]
        assert last["done"] == last["total"] == len(corpus)
        assert last["failed"] == 0
        assert last["rows"] > 0
        assert last["rows_per_sec"] > 0


class TestErrorIsolation:
    def test_broken_design_recorded_and_skipped(self, tmp_path,
                                                corpus_dir):
        """One unparseable file becomes an error entry — the run keeps
        going and every other design is indexed normally."""
        (corpus_dir / "broken.v").write_text(BROKEN)
        paths = sorted(corpus_dir.glob("*.v"))
        index, report = ingest_corpus(tmp_path / "idx", paths,
                                      GNN4IP(seed=0),
                                      IngestConfig(jobs=1))
        assert report["failures"] == 1
        assert report["embedded"] == len(paths) - 1
        broken = next(e for e in index.entries if e["name"] == "broken")
        assert broken["status"] == "error"
        assert "ParseError" in broken["error"]
        # The good designs still answer queries.
        assert top_hits(index, ADDER)[0][0] == "adder"

    def test_error_entry_survives_pause_and_resume(self, tmp_path,
                                                   corpus_dir):
        (corpus_dir / "aa_broken.v").write_text(BROKEN)  # sorts first
        paths = sorted(corpus_dir.glob("*.v"))
        none_index, report = ingest_corpus(
            tmp_path / "idx", paths, GNN4IP(seed=0),
            IngestConfig(jobs=1, stop_after=2))
        assert none_index is None
        assert report["ingest"]["state"] == "paused"
        checkpoint = json.loads(
            (tmp_path / "idx" / CHECKPOINT_NAME).read_text())
        statuses = {e["name"]: e["status"] for e in checkpoint["entries"]}
        assert statuses["aa_broken"] == "error"
        index, report = ingest_corpus(tmp_path / "idx", paths)
        assert report["ingest"]["resumed"] is True
        assert report["failures"] == 1
        assert len(index.entries) == len(paths)


class TestPauseAndResume:
    def test_resumed_equals_uninterrupted(self, tmp_path, corpus):
        """Kill-and-resume equivalence at the API level: pause after a
        flush, resume, and compare against a one-go ingest."""
        one_go, _ = ingest_corpus(tmp_path / "onego", corpus,
                                  GNN4IP(seed=0),
                                  IngestConfig(jobs=1, flush_rows=4))
        root = tmp_path / "paused"
        paused, report = ingest_corpus(
            root, corpus, GNN4IP(seed=0),
            IngestConfig(jobs=1, flush_rows=4, stop_after=3))
        assert paused is None
        assert report["ingest"]["completed"] == 3
        assert (root / CHECKPOINT_NAME).is_file()
        resumed, report = ingest_corpus(root, corpus)  # model from disk
        assert report["ingest"]["resumed"] is True
        assert report["ingest"]["session_designs"] == len(corpus) - 3
        np.testing.assert_array_equal(np.asarray(resumed.matrix),
                                      np.asarray(one_go.matrix))
        for source in (ADDER, COUNTER):
            assert_same_hits(top_hits(resumed, source),
                             top_hits(one_go, source))

    def test_resume_refuses_changed_input_list(self, tmp_path, corpus):
        root = tmp_path / "idx"
        ingest_corpus(root, corpus, GNN4IP(seed=0),
                      IngestConfig(jobs=1, stop_after=2))
        with pytest.raises(IndexStoreError, match="input file list"):
            ingest_corpus(root, corpus[:-1])

    def test_resume_refuses_changed_model(self, tmp_path, corpus):
        root = tmp_path / "idx"
        ingest_corpus(root, corpus, GNN4IP(seed=0),
                      IngestConfig(jobs=1, stop_after=2))
        with pytest.raises(IndexStoreError, match="model changed"):
            ingest_corpus(root, corpus, GNN4IP(seed=1))

    def test_resume_refuses_corrupt_checkpoint(self, tmp_path, corpus):
        root = tmp_path / "idx"
        ingest_corpus(root, corpus, GNN4IP(seed=0),
                      IngestConfig(jobs=1, stop_after=2))
        (root / CHECKPOINT_NAME).write_text("{not json")
        with pytest.raises(IndexStoreError, match="corrupt"):
            ingest_corpus(root, corpus)

    def test_resume_refuses_unknown_checkpoint_version(self, tmp_path,
                                                       corpus):
        root = tmp_path / "idx"
        ingest_corpus(root, corpus, GNN4IP(seed=0),
                      IngestConfig(jobs=1, stop_after=2))
        checkpoint = json.loads((root / CHECKPOINT_NAME).read_text())
        checkpoint["version"] = 999
        (root / CHECKPOINT_NAME).write_text(json.dumps(checkpoint))
        with pytest.raises(IndexStoreError, match="version"):
            ingest_corpus(root, corpus)

    def test_fresh_flag_discards_checkpoint(self, tmp_path, corpus):
        root = tmp_path / "idx"
        ingest_corpus(root, corpus, GNN4IP(seed=0),
                      IngestConfig(jobs=1, stop_after=2))
        index, report = ingest_corpus(root, corpus, GNN4IP(seed=0),
                                      IngestConfig(jobs=1), fresh=True)
        assert report["ingest"]["resumed"] is False
        assert len(index.entries) == len(corpus)


class TestCrashRecovery:
    """Torn-write detection: shard bytes that do not match what the
    checkpoint (or meta) promises are refused loudly, never served."""

    def test_truncated_checkpointed_shard_refused(self, tmp_path, corpus):
        root = tmp_path / "idx"
        ingest_corpus(root, corpus, GNN4IP(seed=0),
                      IngestConfig(jobs=1, flush_rows=4, stop_after=3))
        shard = sorted((root / "shards").glob("shard-*.f32"))[0]
        shard.write_bytes(shard.read_bytes()[:-4])  # tear the tail
        with pytest.raises(IndexStoreError) as excinfo:
            ingest_corpus(root, corpus)
        message = str(excinfo.value)
        assert "truncated" in message
        assert "fresh=True" in message  # actionable: how to recover

    def test_missing_checkpointed_shard_refused(self, tmp_path, corpus):
        root = tmp_path / "idx"
        ingest_corpus(root, corpus, GNN4IP(seed=0),
                      IngestConfig(jobs=1, flush_rows=4, stop_after=3))
        sorted((root / "shards").glob("shard-*.f32"))[0].unlink()
        with pytest.raises(IndexStoreError, match="missing"):
            ingest_corpus(root, corpus)

    def test_orphan_shard_does_not_break_resume(self, tmp_path, corpus):
        """A shard written just before a crash — after the rename but
        before the checkpoint — is an orphan: resume must ignore it and
        finalize must not leave it behind."""
        root = tmp_path / "idx"
        ingest_corpus(root, corpus, GNN4IP(seed=0),
                      IngestConfig(jobs=1, flush_rows=4, stop_after=3))
        checkpoint = json.loads((root / CHECKPOINT_NAME).read_text())
        named = {spec["file"] for spec in checkpoint["shards"]}
        orphan = root / "shards" / "shard-90000.f32"
        orphan.write_bytes(b"\0" * 64)  # uncheckpointed leftover
        assert orphan.name not in named
        index, _ = ingest_corpus(root, corpus)
        assert not orphan.exists()
        final = {spec["file"] for spec in index.meta["store"]["shards"]}
        assert orphan.name not in final

    def test_truncated_final_shard_refused_on_open(self, tmp_path,
                                                   corpus):
        """The serving-side half of the contract: a completed index
        whose last shard was torn afterwards refuses to load."""
        index, _ = ingest_corpus(tmp_path / "idx", corpus, GNN4IP(seed=0),
                                 IngestConfig(jobs=1, flush_rows=4))
        shard = sorted((index.root / "shards").glob("shard-*.f32"))[-1]
        shard.write_bytes(shard.read_bytes()[:-8])
        with pytest.raises(IndexStoreError, match="truncated"):
            FingerprintIndex.load(index.root)


class TestAppendMode:
    def test_append_preserves_existing_scores(self, tmp_path, corpus,
                                              corpus_dir):
        root = tmp_path / "idx"
        first, _ = ingest_corpus(root, corpus[:4], GNN4IP(seed=0),
                                 IngestConfig(jobs=1))
        before = dict(top_hits(first, ADDER, k=4))
        extra = corpus_dir / "extra"
        extra.mkdir()
        (extra / "parity2.v").write_text(PARITY.replace("parity",
                                                        "parity2"))
        (extra / "xchain2.v").write_text(XOR_CHAIN.replace("xchain",
                                                           "xchain2"))
        appended, report = ingest_corpus(root,
                                         sorted(extra.glob("*.v")),
                                         config=IngestConfig(jobs=1))
        assert report["ingest"]["ingest_mode"] == "append"
        assert len(appended.entries) == 6
        # Existing designs keep their exact scores (their rows were
        # never rewritten); new ones join the ranking around them.
        after = dict(top_hits(appended, ADDER, k=6))
        for name, score in before.items():
            assert after[name] == pytest.approx(score, abs=2e-6)
        hits = dict(top_hits(appended, PARITY.replace("parity",
                                                      "parity2"), k=6))
        assert hits["parity2"] == pytest.approx(1.0, abs=1e-5)

    def test_paused_append_keeps_old_index_servable(self, tmp_path,
                                                    corpus, corpus_dir):
        root = tmp_path / "idx"
        first, _ = ingest_corpus(root, corpus[:4], GNN4IP(seed=0),
                                 IngestConfig(jobs=1))
        before = top_hits(first, ADDER, k=3)
        extra = corpus_dir / "extra"
        extra.mkdir()
        (extra / "new1.v").write_text(PARITY.replace("parity", "new1"))
        (extra / "new2.v").write_text(SUB.replace("sub", "new2"))
        paused, _ = ingest_corpus(root, sorted(extra.glob("*.v")),
                                  config=IngestConfig(jobs=1,
                                                      stop_after=1))
        assert paused is None
        # Mid-append, the old meta is untouched and still serves.
        live = FingerprintIndex.load(root)
        assert len(live.entries) == 4
        assert_same_hits(top_hits(live, ADDER, k=3), before)

    def test_append_rejects_foreign_model(self, tmp_path, corpus):
        root = tmp_path / "idx"
        ingest_corpus(root, corpus[:4], GNN4IP(seed=0),
                      IngestConfig(jobs=1))
        with pytest.raises(IndexStoreError, match="fingerprint"):
            ingest_corpus(root, corpus[4:], GNN4IP(seed=1),
                          IngestConfig(jobs=1))


class TestCompaction:
    def test_mini_shards_merged_bit_identically(self, tmp_path,
                                                corpus_dir):
        """flush_rows=1 forces one mini-shard per design — finalize
        must fold them into one without changing a single byte."""
        for i in range(COMPACT_MIN_SHARDS):  # enough designs to compact
            (corpus_dir / f"p{i}.v").write_text(
                PARITY.replace("parity", f"p{i}"))
        paths = sorted(corpus_dir.glob("*.v"))
        loose, _ = ingest_corpus(tmp_path / "loose", paths,
                                 GNN4IP(seed=0),
                                 IngestConfig(jobs=1, flush_rows=10_000))
        tight, report = ingest_corpus(tmp_path / "tight", paths,
                                      GNN4IP(seed=0),
                                      IngestConfig(jobs=1, flush_rows=1))
        assert report["ingest"]["compacted"] is True
        assert len(tight.meta["store"]["shards"]) == 1
        np.testing.assert_array_equal(np.asarray(tight.matrix),
                                      np.asarray(loose.matrix))


class TestIngestCli:
    def test_ingest_then_resume_and_query(self, tmp_path, corpus_dir,
                                          capsys):
        root = tmp_path / "idx"
        model = tmp_path / "model.npz"
        save_model(GNN4IP(seed=7, delta=0.3), model)
        assert main(["index", "ingest", str(root), str(corpus_dir),
                     "--model", str(model), "--jobs", "1",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["embedded"] == len(SOURCES)
        assert report["ingest"]["state"] == "complete"
        assert report["throughput"]["designs_per_sec"] > 0
        # Re-pointing at the same tree appends (no checkpoint left).
        assert main(["index", "ingest", str(root), str(corpus_dir),
                     "--jobs", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ingest"]["ingest_mode"] == "append"
        assert main(["index", "stats", str(root)]) == 0

    def test_progress_flag_writes_stderr(self, tmp_path, corpus_dir,
                                         capsys):
        root = tmp_path / "idx"
        model = tmp_path / "model.npz"
        save_model(GNN4IP(seed=7, delta=0.3), model)
        assert main(["index", "ingest", str(root), str(corpus_dir),
                     "--model", str(model), "--jobs", "1",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "progress:" in captured.err
        assert "designs" in captured.err
