"""Query engine, shard store, IVF quantizer, and incremental adds.

Covers the format-v4 serving contract: v2/v3 refusal with a migration
message, partial/corrupt shard detection, the IVF recall floor,
``query_many`` == per-vector ``query_vector`` bit-identity in exact
mode, append-only ``index add``, and the cached embedding service.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import GNN4IP
from repro.dataflow import dfg_from_verilog
from repro.errors import IndexStoreError
from repro.index import (
    FingerprintIndex,
    IngestConfig,
    IVFIndex,
    QueryEngine,
    ingest_corpus,
    migrate_v2,
)
from repro.index import service as service_mod
from repro.index.match import Match
from repro.index.shards import unit_rows_f32

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

SOURCES = {"adder.v": ADDER, "sub.v": SUB, "mux.v": MUX}


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for name, text in SOURCES.items():
        (root / name).write_text(text)
    return root


@pytest.fixture
def built(tmp_path, corpus_dir):
    model = GNN4IP(seed=0)
    index, report = ingest_corpus(tmp_path / "idx",
                                  sorted(corpus_dir.glob("*.v")), model,
                                  IngestConfig(jobs=1), fresh=True)
    return index, report, model


def _downgrade_to_v2(index):
    """Rewrite a built v3 index as a faithful v2 layout (for migration
    tests): compressed float64 npz + v2 meta, no shards."""
    root = index.root
    ok = [e for e in index.entries if e["status"] == "ok"]
    np.savez(root / "embeddings.npz",
             matrix=np.asarray(index.matrix, dtype=np.float64),
             keys=np.array([e["key"] for e in ok], dtype="U64"))
    meta = json.loads((root / "meta.json").read_text())
    meta["version"] = 2
    meta.pop("store", None)
    meta.pop("ivf", None)
    meta["options"].pop("use_cache", None)
    (root / "meta.json").write_text(json.dumps(meta))
    for shard in (root / "shards").glob("shard-*"):
        shard.unlink()


def clustered_vectors(n, hidden=16, families=20, seed=0, noise=0.15):
    """Synthetic unit float32 rows clustered into design families."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((families, hidden))
    labels = rng.integers(0, families, size=n)
    rows = centers[labels] + noise * rng.standard_normal((n, hidden))
    return unit_rows_f32(rows)


def synthetic_engine(matrix, ivf=None):
    entries = [{"name": f"d{i}", "path": f"d{i}.v", "design": f"fam{i}",
                "status": "ok", "key": f"{i:064d}"}
               for i in range(len(matrix))]
    return QueryEngine([matrix], entries, ivf=ivf)


class TestV2Migration:
    def test_v2_load_refused_with_migrate_message(self, built):
        index, _, _ = built
        _downgrade_to_v2(index)
        with pytest.raises(IndexStoreError, match="index migrate"):
            FingerprintIndex.load(index.root)

    def test_migrate_v2_preserves_scores(self, built):
        index, _, model = built
        suspect = dfg_from_verilog(ADDER)
        before = index.query_graph(suspect, model, k=3)
        _downgrade_to_v2(index)
        migrated = migrate_v2(index.root)
        assert not (index.root / "embeddings.npz").exists()
        after = migrated.query_graph(suspect, model, k=3)
        assert [(h.name, h.score) for h in after] == \
            [(h.name, h.score) for h in before]

    def test_migrate_cli(self, built, capsys):
        index, _, _ = built
        _downgrade_to_v2(index)
        assert main(["index", "migrate", str(index.root)]) == 0
        assert "format v4" in capsys.readouterr().out
        assert main(["index", "stats", str(index.root)]) == 0
        capsys.readouterr()
        # Re-running on an already-v4 index must not claim a migration.
        assert main(["index", "migrate", str(index.root)]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_migrate_rejects_other_versions(self, built):
        index, _, _ = built
        meta = json.loads((index.root / "meta.json").read_text())
        meta["version"] = 1
        (index.root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IndexStoreError, match="only v2"):
            migrate_v2(index.root)


class TestShardIntegrity:
    def test_truncated_shard_detected(self, built):
        index, _, _ = built
        shard = next((index.root / "shards").glob("shard-*.f32"))
        shard.write_bytes(shard.read_bytes()[:-4])
        with pytest.raises(IndexStoreError, match="truncated"):
            FingerprintIndex.load(index.root)

    def test_missing_shard_detected(self, built):
        index, _, _ = built
        next((index.root / "shards").glob("shard-*.f32")).unlink()
        with pytest.raises(IndexStoreError, match="missing"):
            FingerprintIndex.load(index.root)

    def test_verify_catches_same_size_corruption(self, built):
        index, _, _ = built
        shard = next((index.root / "shards").glob("shard-*.f32"))
        blob = bytearray(shard.read_bytes())
        blob[0] ^= 0xFF
        shard.write_bytes(bytes(blob))
        reloaded = FingerprintIndex.load(index.root)  # size still matches
        assert reloaded.shards.verify() == [shard.name]

    def test_verify_clean(self, built):
        index, _, _ = built
        assert index.shards.verify() == []

    def test_rebuild_never_overwrites_a_referenced_shard(self, built,
                                                         corpus_dir,
                                                         tmp_path):
        """A rebuild writes its matrix under a fresh shard name (old
        files are cleaned only after the new meta lands), so a crash
        mid-rebuild can never pair the previous meta with new bytes."""
        index, _, model = built
        old = index.meta["store"]["shards"][0]["file"]
        rebuilt, _ = ingest_corpus(index.root,
                                   sorted(corpus_dir.glob("*.v")), model,
                                   IngestConfig(jobs=1), fresh=True)
        new = rebuilt.meta["store"]["shards"][0]["file"]
        assert new != old
        assert not (index.root / "shards" / old).exists()
        assert rebuilt.shards.verify() == []


class TestExactBatched:
    def test_query_many_matches_query_vector_bitwise(self, built):
        """Every batched exact result must be bit-identical to the same
        vector served alone through query_vector."""
        index, _, model = built
        rng = np.random.default_rng(5)
        batch = np.concatenate([index.matrix,
                                rng.standard_normal((61, 16))])
        many = index.query_many(batch, k=len(index), exact=True)
        for vector, hits in zip(batch, many):
            single = index.query_vector(vector, k=len(index), exact=True)
            assert [(h.name, h.score) for h in single] == \
                [(h.name, h.score) for h in hits]

    def test_empty_batch_and_k_edge_cases(self, built):
        index, _, _ = built
        assert index.query_many(np.empty((0, 16))) == []
        assert index.query_many([]) == []
        assert index.query_vector(index.matrix[0], k=0) == []
        hits = index.query_vector(index.matrix[0], k=99)
        assert len(hits) == len(index)

    def test_wrong_width_rejected(self, built):
        index, _, _ = built
        with pytest.raises(IndexStoreError, match="shape"):
            index.query_vector(np.ones(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, built, bad):
        index, _, _ = built
        vector = np.array(index.matrix[0], dtype=np.float64)
        vector[3] = bad
        with pytest.raises(IndexStoreError, match="finite"):
            index.query_many([index.matrix[1], vector], exact=True)

    def test_tied_survivors_ordered_by_row(self):
        """Among the selected top-k, equal scores order by lower row id.

        (Which of several boundary-tied rows gets selected is
        deterministic but unspecified — argpartition, not full argsort.)
        """
        matrix = unit_rows_f32(np.array([[1.0, 0.0], [1.0, 0.0],
                                         [0.0, 1.0], [-1.0, 0.0]]))
        engine = synthetic_engine(matrix)
        hits = engine.query_many(np.array([[1.0, 0.0]]), k=2)[0]
        assert [h.name for h in hits] == ["d0", "d1"]
        assert [h.score for h in hits] == [1.0, 1.0]


class TestIVF:
    def test_recall_floor_and_exact_rerank(self):
        matrix = clustered_vectors(2000, families=25, seed=1)
        ivf = IVFIndex.fit(matrix, n_clusters=40, seed=0)
        engine = synthetic_engine(matrix, ivf=ivf)
        rng = np.random.default_rng(2)
        picks = rng.choice(len(matrix), size=64, replace=False)
        queries = unit_rows_f32(
            matrix[picks] + 0.05 * rng.standard_normal((64, 16)))
        exact = engine.query_many(queries, k=10, exact=True)
        approx = engine.query_many(queries, k=10, nprobe=8)
        recalls = []
        for ex, ap in zip(exact, approx):
            truth = {h.name for h in ex}
            got = {h.name for h in ap}
            recalls.append(len(truth & got) / len(truth))
            # Survivors are re-ranked exactly: scores match bit-for-bit
            # against the exact pass for every row both agree on.
            ex_scores = {h.name: h.score for h in ex}
            for hit in ap:
                if hit.name in ex_scores:
                    assert hit.score == pytest.approx(ex_scores[hit.name],
                                                      abs=1e-6)
        assert float(np.mean(recalls)) >= 0.95

    def test_nprobe_all_clusters_equals_exact(self):
        matrix = clustered_vectors(500, families=10, seed=3)
        ivf = IVFIndex.fit(matrix, n_clusters=16, seed=0)
        engine = synthetic_engine(matrix, ivf=ivf)
        queries = matrix[:8]
        exact = engine.query_many(queries, k=5, exact=True)
        full_probe = engine.query_many(queries, k=5, nprobe=16)
        for ex, ap in zip(exact, full_probe):
            assert [h.name for h in ex] == [h.name for h in ap]

    def test_fit_deterministic_and_persistent(self, tmp_path):
        matrix = clustered_vectors(600, seed=4)
        a = IVFIndex.fit(matrix, n_clusters=12, seed=7)
        b = IVFIndex.fit(matrix, n_clusters=12, seed=7)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        a.save(tmp_path / "ivf.npz")
        loaded = IVFIndex.load(tmp_path / "ivf.npz")
        np.testing.assert_array_equal(loaded.centroids, a.centroids)

    def test_add_assigns_without_reclustering(self):
        matrix = clustered_vectors(400, seed=5)
        ivf = IVFIndex.fit(matrix, n_clusters=10, seed=0)
        centroids_before = ivf.centroids.copy()
        assignments_before = ivf.assignments.copy()
        extra = clustered_vectors(40, seed=6)
        ivf.add(extra)
        np.testing.assert_array_equal(ivf.centroids, centroids_before)
        np.testing.assert_array_equal(ivf.assignments[:400],
                                      assignments_before)
        assert ivf.rows == 440
        np.testing.assert_array_equal(ivf.assignments[400:],
                                      ivf.assign(extra))

    def test_corrupt_ivf_refused(self, tmp_path):
        (tmp_path / "ivf.npz").write_bytes(b"junk")
        with pytest.raises(IndexStoreError, match="corrupt IVF"):
            IVFIndex.load(tmp_path / "ivf.npz")

    def test_truncated_zip_ivf_refused(self, tmp_path):
        """Zip magic intact but archive truncated (interrupted copy):
        np.load raises BadZipFile, which must surface as the same
        IndexStoreError so index load degrades instead of crashing."""
        matrix = clustered_vectors(300, seed=8)
        ivf = IVFIndex.fit(matrix, n_clusters=8, seed=0)
        path = tmp_path / "ivf.npz"
        ivf.save(path)
        path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
        with pytest.raises(IndexStoreError, match="corrupt IVF"):
            IVFIndex.load(path)

    def test_stale_or_corrupt_quantizer_degrades_to_exact(
            self, tmp_path, corpus_dir, monkeypatch):
        """The quantizer is an accelerator, not a dependency: a broken
        ivf.npz must not make an intact index unloadable, and the next
        add refits it."""
        monkeypatch.setattr("repro.index.ann.MIN_ROWS", 2)
        model = GNN4IP(seed=0)
        root = tmp_path / "ivf_idx"
        index, _ = ingest_corpus(root, sorted(corpus_dir.glob("*.v")),
                                 model, IngestConfig(jobs=1), fresh=True)
        assert index.ivf is not None
        # Corrupt quantizer -> exact serving, index still loads.
        (root / index.meta["ivf"]["file"]).write_bytes(b"junk")
        degraded = FingerprintIndex.load(root)
        assert degraded.ivf is None
        hits = degraded.query_graph(dfg_from_verilog(ADDER), model, k=1)
        assert hits[0].name == "adder"
        assert degraded.stats()["ivf_clusters"] == 0
        # Simulated crash between ivf.save and the meta write: quantizer
        # rows outrun the metadata -> treated as stale, exact serving.
        healed, _ = ingest_corpus(root, [corpus_dir / "adder.v"],
                                  config=IngestConfig(jobs=1), resume=False)
        assert healed.ivf is not None
        healed.ivf.add(np.ones((1, 16), dtype=np.float32))
        healed.ivf.save(root / healed.meta["ivf"]["file"])
        assert FingerprintIndex.load(root).ivf is None
        # The add path refits a dropped quantizer from the full matrix,
        # under a fresh generation name, and cleans superseded files.
        extra = tmp_path / "xchain.v"
        extra.write_text(XOR_CHAIN)
        refitted, _ = ingest_corpus(root, [extra],
                                    config=IngestConfig(jobs=1),
                                    resume=False)
        assert refitted.ivf is not None
        assert refitted.ivf.rows == len(refitted)
        on_disk = sorted(p.name for p in root.glob("ivf*.npz"))
        assert on_disk == [refitted.meta["ivf"]["file"]]
        assert refitted.meta["ivf"]["file"] != index.meta["ivf"]["file"]


class TestResidentLists:
    """The IVF branch scores probed clusters from each partition's
    cluster-ordered resident copy of its rows.  The layout must not show
    in any result: a 4-shard engine with uneven shard sizes (one of them
    empty) answers exactly like a single-block engine over the same
    rows, and its partitions' partials merge to the same answer."""

    SIZES = (610, 0, 333, 257)
    K_BEYOND_POOL = 150
    PARTITIONS = ([[0], [1], [2, 3]], [[0, 1, 2, 3], []],
                  [[2], [0, 3], [1]])

    @pytest.fixture(scope="class")
    def layout(self):
        rows = clustered_vectors(sum(self.SIZES), families=12, seed=21)
        # Store rows roughly cluster by cluster, so most clusters live
        # in one or two shards and partitions see empty list slices.
        rows = rows[np.argsort(IVFIndex.fit(rows, seed=0).assignments,
                               kind="stable")]
        ivf = IVFIndex.fit(rows, seed=0)
        entries = [{"name": f"d{i}", "path": f"d{i}.v", "design": f"f{i}",
                    "status": "ok"} for i in range(len(rows))]
        blocks = np.split(rows, np.cumsum(self.SIZES)[:-1])
        single = QueryEngine([rows], entries, ivf=ivf)
        sharded = QueryEngine(blocks, entries, ivf=ivf)
        rng = np.random.default_rng(22)
        picks = rng.choice(len(rows), size=9, replace=False)
        queries = unit_rows_f32(rows[picks]
                                + 0.05 * rng.standard_normal((9, 16)))
        return single, sharded, queries

    @pytest.mark.parametrize("nprobe", [1, 8, 10 ** 6])
    def test_sharded_equals_single_block(self, layout, nprobe):
        single, sharded, queries = layout
        for k in (5, self.K_BEYOND_POOL):
            expected = single.query_many(queries, k=k, nprobe=nprobe)
            assert sharded.query_many(queries, k=k, nprobe=nprobe) == \
                expected
            singles = [sharded.query_many(q, k=k, nprobe=nprobe)[0]
                       for q in queries]
            assert singles == expected
        if nprobe == 1:
            # k outruns at least one query's probed pool.
            assert min(len(h) for h in expected) < self.K_BEYOND_POOL
        offsets = [0, 1, 4, 4, 9]
        assert sharded.query_groups(queries, offsets, k=6,
                                    nprobe=nprobe) == \
            single.query_groups(queries, offsets, k=6, nprobe=nprobe)

    @pytest.mark.parametrize("nprobe", [1, 8, 10 ** 6])
    @pytest.mark.parametrize("shard_sets", PARTITIONS)
    def test_partials_merge_bitident(self, layout, nprobe, shard_sets):
        single, sharded, queries = layout
        for k in (5, self.K_BEYOND_POOL):
            partials = [sharded.partial_many(queries, k=k, nprobe=nprobe,
                                             shards=s) for s in shard_sets]
            assert sharded.merge_many(partials, k=k) == \
                single.query_many(queries, k=k, nprobe=nprobe)
        offsets = [0, 3, 9]
        grouped = [sharded.partial_groups(queries, offsets, k=6,
                                          nprobe=nprobe, shards=s)
                   for s in shard_sets]
        assert sharded.merge_groups(grouped, offsets, k=6) == \
            single.query_groups(queries, offsets, k=6, nprobe=nprobe)

    def test_merge_refuses_partials_of_other_batches(self, layout):
        """Partials that disagree on the query count come from
        different batches; merging them must not drop queries."""
        _, sharded, queries = layout
        whole = sharded.partial_many(queries, k=5, shards=[0, 1])
        short = sharded.partial_many(queries[:4], k=5, shards=[2, 3])
        with pytest.raises(IndexStoreError, match="disagree on the query"):
            sharded.merge_many([whole, short], k=5)
        with pytest.raises(IndexStoreError, match="disagree on the query"):
            sharded.merge_many([short, whole], k=5)

    def test_one_partition_merge_is_its_ranking(self, layout):
        """A lone partial is already ranked, so its merge keeps its
        first k hits, for any k."""
        single, _, queries = layout
        partial = single.partial_many(queries, k=10, nprobe=8)
        for k in (-1, 0, 4, 10, 20):
            assert single.merge_many([partial], k=k) == \
                single.query_many(queries, k=min(max(k, 0), 10), nprobe=8)

    def test_hits_are_ranked_matches(self, layout):
        single, _, queries = layout
        per_row = single.query_many(queries, k=7)
        grouped = single.query_groups(queries, [0, 1, 4, 9], k=6)
        for hits in per_row + grouped:
            assert all(isinstance(hit, Match) for hit in hits)
            assert [hit.rank for hit in hits] == \
                list(range(1, len(hits) + 1))

    def test_partitions_see_empty_slices(self, layout):
        """The layouts above really exercise empty list slices: some
        partition owns no row of a cluster a query probes."""
        _, sharded, queries = layout
        probed = np.unique(sharded.ivf.probe(queries, 8))
        lists = sharded.inverted_lists([2, 3])
        sizes = np.diff(lists.starts)[probed]
        assert (sizes == 0).any() and (sizes > 0).any()
        assert len(sharded.inverted_lists([1]).rows) == 0

    def test_resident_copy_is_partition_sized(self, layout):
        _, sharded, queries = layout
        offsets = np.concatenate(([0], np.cumsum(self.SIZES)))
        for shards in self.PARTITIONS[0]:
            sharded.partial_many(queries, k=3, shards=shards)
            lists = sharded.inverted_lists(shards)
            rows = sum(self.SIZES[s] for s in shards)
            assert lists.vectors.size == rows * sharded.hidden
            assert lists.vectors.dtype == np.float32
            assert lists.vectors.flags.c_contiguous
            owned = np.concatenate([np.arange(offsets[s], offsets[s + 1])
                                    for s in shards])
            assert sorted(lists.rows.tolist()) == owned.tolist()
            # Built once, then reused.
            assert sharded.inverted_lists(shards) is lists

    def test_quantizer_over_other_rows_refused(self):
        matrix = clustered_vectors(300, seed=23)
        ivf = IVFIndex.fit(matrix[:299], n_clusters=8, seed=0)
        with pytest.raises(IndexStoreError, match="covers 299 rows"):
            synthetic_engine(matrix, ivf=ivf)


class TestIncrementalAdd:
    def test_appends_shard_without_touching_existing(self, built,
                                                     tmp_path):
        index, _, model = built
        first_shard = index.root / "shards" / "shard-00000.f32"
        before_bytes = first_shard.read_bytes()
        extra = tmp_path / "xchain.v"
        extra.write_text(XOR_CHAIN)
        grown, report = ingest_corpus(index.root, [extra],
                                      config=IngestConfig(jobs=1),
                                      resume=False)
        assert report["ingest"]["ingest_mode"] == "append"
        assert report["embedded_fresh"] == 1
        assert len(grown) == len(index) + 1
        assert first_shard.read_bytes() == before_bytes
        assert (index.root / "shards" / "shard-00001.f32").is_file()
        hits = grown.query_graph(dfg_from_verilog(XOR_CHAIN), model, k=1)
        assert hits[0].name == "xchain"
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_duplicate_content_reuses_embedding(self, built, tmp_path):
        index, _, _ = built
        copy = tmp_path / "adder_copy.v"
        copy.write_text(ADDER)
        grown, report = ingest_corpus(index.root, [copy],
                                      config=IngestConfig(jobs=1),
                                      resume=False)
        assert report["embedded_fresh"] == 0
        assert report["embeddings_reused"] == 1
        assert len(grown) == len(index) + 1

    def test_duplicate_stem_gets_unique_name(self, built, tmp_path):
        index, _, _ = built
        other = tmp_path / "adder.v"
        other.write_text(XOR_CHAIN)
        grown, _ = ingest_corpus(index.root, [other],
                                 config=IngestConfig(jobs=1), resume=False)
        names = [e["name"] for e in grown.entries]
        assert "adder" in names and "adder#2" in names

    def test_add_cli(self, built, tmp_path, capsys):
        index, _, _ = built
        extra = tmp_path / "xchain.v"
        extra.write_text(XOR_CHAIN)
        assert main(["index", "add", str(index.root), str(extra)]) == 0
        out = capsys.readouterr().out
        assert "added 1/1 files" in out
        assert "2 shard(s)" in out

    def test_add_cli_nothing_added_exits_nonzero(self, built, tmp_path,
                                                 capsys):
        index, _, _ = built
        bad = tmp_path / "bad.v"
        bad.write_text("module oops(input a endmodule")
        assert main(["index", "add", str(index.root), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "added 0/1 files" in captured.out
        assert "FAILED" in captured.err

    def test_add_cli_reports_only_this_runs_failures(self, tmp_path,
                                                     corpus_dir, capsys):
        (corpus_dir / "broken.v").write_text("module oops(input a endmodule")
        root = tmp_path / "idx_fail"
        assert main(["index", "build", str(root), str(corpus_dir),
                     "--allow-untrained"]) == 0
        capsys.readouterr()
        good = tmp_path / "xchain.v"
        good.write_text(XOR_CHAIN)
        assert main(["index", "add", str(root), str(good)]) == 0
        captured = capsys.readouterr()
        # The old build failure must not be re-reported by this add.
        assert "0 failures" in captured.out
        assert "FAILED" not in captured.err


class TestServingCaches:
    def test_service_fingerprints_model_once(self, built, monkeypatch):
        index, _, model = built
        calls = []
        real = service_mod.model_fingerprint
        monkeypatch.setattr(service_mod, "model_fingerprint",
                            lambda m: calls.append(1) or real(m))
        suspect = dfg_from_verilog(ADDER)
        index.query_graph(suspect, model, k=1)
        index.query_graph(suspect, model, k=1)
        index.query_graph(suspect, model, k=1)
        assert len(calls) == 1

    def test_frontend_cached(self, built):
        index, _, _ = built
        assert index.frontend() is index.frontend()

    def test_foreign_model_still_rejected(self, built):
        index, _, _ = built
        with pytest.raises(IndexStoreError, match="fingerprint"):
            index.service_for(GNN4IP(seed=9))

    def test_stats_does_not_create_cache_dir(self, tmp_path, corpus_dir):
        root = tmp_path / "nocache_idx"
        index, _ = ingest_corpus(root, sorted(corpus_dir.glob("*.v")),
                                 GNN4IP(seed=0),
                                 IngestConfig(jobs=1, use_cache=False),
                                 fresh=True)
        assert not index.use_cache
        assert not (root / "cache").exists()
        stats = FingerprintIndex.load(root).stats()
        assert stats["cache_entries"] == 0
        assert stats["cache_bytes"] == 0
        assert not (root / "cache").exists()
        assert main(["index", "stats", str(root)]) == 0
        assert not (root / "cache").exists()

    def test_compare_respects_no_cache_policy(self, tmp_path, corpus_dir,
                                              capsys):
        root = tmp_path / "nocache_idx"
        ingest_corpus(root, sorted(corpus_dir.glob("*.v")), GNN4IP(seed=0),
                      IngestConfig(jobs=1, use_cache=False), fresh=True)
        fresh = tmp_path / "fresh.v"
        fresh.write_text(XOR_CHAIN)
        code = main(["compare", str(corpus_dir / "adder.v"), str(fresh),
                     "--index", str(root)])
        capsys.readouterr()
        assert code in (0, 2)
        assert not (root / "cache").exists()


class TestQueryCLI:
    def test_multi_suspect_tables(self, built, corpus_dir, capsys):
        index, _, _ = built
        code = main(["index", "query", str(index.root),
                     str(corpus_dir / "adder.v"),
                     str(corpus_dir / "mux.v"), "-k", "2"])
        assert code == 2
        out = capsys.readouterr().out
        assert out.count("== ") == 2
        assert out.count("top 2 of") == 2

    def test_exact_and_nprobe_flags(self, built, corpus_dir, capsys):
        index, _, _ = built
        assert main(["index", "query", str(index.root),
                     str(corpus_dir / "adder.v"), "--exact"]) == 2
        assert "exact" in capsys.readouterr().out
        # nprobe on an index without a quantizer still serves exactly.
        assert main(["index", "query", str(index.root),
                     str(corpus_dir / "adder.v"), "--nprobe", "4"]) == 2

    def test_bad_suspect_reported_others_served(self, built, corpus_dir,
                                                tmp_path, capsys):
        index, _, _ = built
        bad = tmp_path / "broken.v"
        bad.write_text("module oops(input a endmodule")
        code = main(["index", "query", str(index.root), str(bad),
                     str(corpus_dir / "adder.v")])
        captured = capsys.readouterr()
        assert code == 2  # the good suspect still found its match
        assert "broken.v" in captured.err
        assert "top" in captured.out
